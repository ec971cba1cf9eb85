(** Discrete-event simulation engine.

    A virtual clock plus an event heap of timestamped events. Events
    scheduled for the same instant fire in scheduling order, which makes
    runs bit-reproducible for a fixed seed. Time is in seconds.

    Events are values of the extensible type {!event}. A {!Call} carries
    a closure and runs it; the simulator's hot events (message hops,
    machine-queue completions, replica timers) are constructors a client
    adds to {!event} and dispatches in one handler ({!set_handler}), so
    they can be inspected while pending: the model checker reads
    delivery and timer identities from the heap itself.

    The event queue is a monomorphic float-keyed 4-ary heap in
    structure-of-arrays layout (unboxed timestamps, primitive
    comparisons, FIFO sequence tie-break, hole-moving sifts), specialized
    away from the generic [Bamboo_util.Heap] because every simulated
    message hop, CPU charge and timer passes through it. *)

type t

type event = ..
(** A pending event. Clients extend it with their own constructors. *)

type event += Call of (unit -> unit)  (** Runs the closure. *)

type candidate = {
  c_at : float;  (** Scheduled timestamp of the delivery. *)
  c_src : int;
  c_dst : int;
  c_note : string;  (** Stable message identity ({!Bamboo_types.Message.key}). *)
}
(** One deliverable message event offered to a scheduling strategy. *)

type controller = {
  window : float;
      (** Commutativity-window width in virtual seconds: deliveries
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
(** A pluggable delivery-order strategy for {!run_until}. Only events the
    handler's [delivery] classifier names participate; everything else
    (timers, machine completions, workload ticks) fires in plain heap
    order. Used by the [bamboo_explore] model checker. *)

val create : unit -> t
(** An empty simulator at time 0. Without {!set_handler} it fires only
    {!Call} events. *)

val set_handler :
  t ->
  fire:(event -> unit) ->
  delivery:(event -> (int * int * string) option) ->
  unit
(** [set_handler t ~fire ~delivery] installs the dispatch for every event
    that is not a {!Call}: [fire ev] runs it. [delivery ev] is
    [Some (src, dst, note)] when [ev] is a message delivery the
    {!controller} may reorder ([note] is its stable identity,
    {!Bamboo_types.Message.key}), and [None] otherwise. *)

val now : t -> float

val post : t -> delay:float -> event -> unit
(** [post t ~delay ev] fires [ev] at [now t +. delay]. Negative delays are
    clamped to 0. *)

val post_at : t -> at:float -> event -> unit
(** [post_at t ~at ev] fires [ev] at absolute time [at] ([now] if already
    past). *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] is [post t ~delay (Call f)]. *)

val schedule_at : t -> at:float -> (unit -> unit) -> unit
(** [schedule_at t ~at f] is [post_at t ~at (Call f)]. *)

val run_until : t -> float -> unit
(** [run_until t horizon] processes events in timestamp order until the
    queue is empty or the next event is after [horizon]; the clock ends at
    [horizon] or at the last processed event, whichever is later.

    With a {!controller} installed, each step where the minimum event is a
    delivery and at least one other delivery lies within the
    commutativity window becomes a decision point: the controller's
    [choose] picks the firing order instead of the fixed heap order. With
    no controller the loop pops the heap root and does nothing else. *)

(** {2 Controlled scheduling} *)

val set_controller : t -> controller option -> unit
(** Installs (or removes, with [None]) the delivery-order controller and
    resets {!decisions}. *)

val pending_deliveries : t -> (float * int * int * string) list
(** Pending deliveries [(at, src, dst, note)], as the handler's [delivery]
    classifier names them, sorted by (timestamp, scheduling sequence).
    The model checker folds this into its state fingerprint. *)

val fold_pending : t -> ('a -> event -> 'a) -> 'a -> 'a
(** [fold_pending t f init] folds [f] over every pending event, in heap
    order (not firing order). *)

val decisions : t -> int
(** Decision points presented to the controller so far (0 without one). *)

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
