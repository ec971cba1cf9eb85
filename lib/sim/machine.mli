(** Per-node machine model (paper §V-B1): each machine is a single CPU plus
    a NIC, each modelled as a FIFO single-server queue.

    The machine is queue accounting only: {!admit} places a job on a queue
    and returns the virtual time it completes, accounting for queueing
    behind earlier work; {!release} ends the job. Scheduling the
    completion is the caller's business (the runtime pushes a typed
    simulator event at the returned time), so the machine holds no
    simulator and no continuations. NIC serialization is
    [bytes / bandwidth] ({!wire_time}), charged once outbound at the
    sender and once inbound at the receiver — the paper's [t_NIC = 2m/b].

    Each queue also tracks its depth (jobs admitted but not yet released)
    and cumulative busy time, feeding the observability layer's probes;
    an optional service hook reports every service span (for timeline
    tracing). *)

type queue = [ `Cpu | `Nic_out | `Nic_in ]

type t

val create : bandwidth:float -> t
(** [bandwidth] in bytes/second. *)

val wire_time : t -> bytes:int -> float
(** Seconds the NIC needs to serialize [bytes]. *)

val set_speed : t -> float -> unit
(** Sets the CPU speed factor (default 1.0): every subsequent [`Cpu]
    duration is divided by it, so a factor of 0.5 halves the machine's
    effective speed. The fault subsystem's [slow] fault drives this.
    Raises [Invalid_argument] unless positive. *)

val admit : t -> queue -> now:float -> duration:float -> float
(** [admit m q ~now ~duration] enqueues [duration] seconds of work on [q]
    at virtual time [now] and returns its completion time: service starts
    when the queue drains or at [now], whichever is later. Zero-duration
    work still respects FIFO order. Raises [Invalid_argument] on a
    negative duration. *)

val release : t -> queue -> unit
(** Ends the oldest job on the queue: its depth drops by one. Call it
    when the completion time {!admit} returned is reached. *)

val busy_until : t -> queue -> float
(** Absolute virtual time at which the queue drains. *)

val busy_seconds : t -> queue -> float
(** Total service seconds admitted so far. *)

val queue_depth : t -> queue -> int
(** Jobs admitted to the queue and not yet released (including the one in
    service). *)

val ops : t -> queue -> int
(** Total jobs ever admitted to the queue. *)

val peak_depth : t -> queue -> int
(** High-water mark of {!queue_depth}. *)

val set_service_hook :
  t -> (queue:queue -> start:float -> duration:float -> unit) option -> unit
(** Installs (or clears) a callback invoked synchronously for every
    admitted job with its computed service window. It exists to feed
    trace timelines. *)
