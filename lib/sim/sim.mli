(** Discrete-event simulation engine.

    A virtual clock plus an event heap of timestamped callbacks. Events
    scheduled for the same instant fire in scheduling order, which makes
    runs bit-reproducible for a fixed seed. Time is in seconds.

    The event queue is a monomorphic float-keyed 4-ary heap in
    structure-of-arrays layout (unboxed timestamps, primitive
    comparisons, FIFO sequence tie-break, hole-moving sifts), specialized
    away from the generic [Bamboo_util.Heap] because every simulated
    message hop, CPU charge and timer passes through it. *)

type t

type candidate = {
  c_at : float;  (** Scheduled timestamp of the delivery. *)
  c_src : int;
  c_dst : int;
  c_note : string;  (** Stable message identity ({!Bamboo_types.Message.key}). *)
}
(** One deliverable message event offered to a scheduling strategy. *)

type controller = {
  window : float;
      (** Commutativity-window width in virtual seconds: tagged deliveries
          whose timestamps fall within [window] of the earliest one are
          considered concurrently deliverable. *)
  choose : now:float -> candidate array -> int;
      (** Picks which candidate fires next. The array is sorted by
          (timestamp, scheduling sequence) — index 0 is what the
          uncontrolled heap would fire — and always has at least two
          entries. Must return a valid index; the chosen delivery fires
          at the window base (the earliest candidate's timestamp), i.e.
          choosing a later candidate models that message arriving early. *)
}
(** A pluggable delivery-order strategy for {!run_until}. Only events
    scheduled through {!schedule_delivery} participate; everything else
    (timers, machine completions, workload ticks) fires in plain heap
    order. Used by the [bamboo_explore] model checker. *)

val create : unit -> t

val now : t -> float

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. delay]. Negative delays are
    clamped to 0. *)

val schedule_at : t -> at:float -> (unit -> unit) -> unit
(** [schedule_at t ~at f] runs [f] at absolute time [at] ([now] if already
    past). *)

val run_until : t -> float -> unit
(** [run_until t horizon] processes events in timestamp order until the
    queue is empty or the next event is after [horizon]; the clock ends at
    [horizon] or at the last processed event, whichever is later.

    With a {!controller} installed, each step where the minimum event is a
    tagged delivery and at least one other tagged delivery lies within the
    commutativity window becomes a decision point: the controller's
    [choose] picks the firing order instead of the fixed heap order. With
    no controller the loop is exactly the pre-hook one — bit-identical
    behavior at zero per-event cost. *)

(** {2 Controlled scheduling} *)

val set_controller : t -> controller option -> unit
(** Installs (or removes, with [None]) the delivery-order controller.
    Install before scheduling deliveries: only events tagged by
    {!schedule_delivery} after installation participate in decisions. *)

val schedule_delivery :
  t -> delay:float -> src:int -> dst:int -> note:string -> (unit -> unit) -> unit
(** Like {!schedule}, but tags the event as a message delivery
    ([src -> dst], identity [note]) eligible for controlled reordering.
    Exactly {!schedule} when no controller is installed. *)

val pending_deliveries : t -> (float * int * int * string) list
(** In-flight tagged deliveries [(at, src, dst, note)], sorted by
    (timestamp, scheduling sequence). Always [[]] without a controller;
    the model checker folds this into its state fingerprint. *)

val decisions : t -> int
(** Decision points presented to the controller so far (0 without one). *)

(** {2 Probing helpers} *)

val peek_at : t -> float option
(** Timestamp of the next event without firing it; [None] on an empty
    queue. Useful to probes and schedulers that must look ahead without
    perturbing the run. *)

val drain_window : t -> width:float -> int
(** [drain_window t ~width] fires every event with timestamp at most
    [peek_at t + width] — including events those firings schedule inside
    the window — in plain heap order, bypassing any controller, and
    returns how many fired. 0 on an empty queue; [width = 0.0] drains
    exactly the events sharing the next timestamp. Raises
    [Invalid_argument] on negative [width]. *)

val run_to_completion : ?max_events:int -> t -> unit
(** Drains the queue entirely; raises [Failure] after [max_events]
    (default 100 million) as a runaway guard. *)

val pending : t -> int
(** Number of scheduled events not yet fired. *)

val fired : t -> int
(** Total events executed so far; an instrumentation-independent measure
    of simulation work, used by the observability layer's zero-overhead
    checks. *)

val pushed : t -> int
(** Total events ever scheduled (heap pushes). *)

val peak_depth : t -> int
(** High-water mark of the event heap. *)
