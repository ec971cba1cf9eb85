(** Consumer wakeup for lock-free transports.

    The ring buffer ([Bamboo_util.Ring]) never blocks, so a receiver that
    finds it empty needs somewhere to sleep and producers need a cheap way
    to wake it. A {!doorbell} provides that: the consumer {!park}s on it,
    producers {!ring} it after publishing. The producer fast path is a
    single atomic load — the mutex is only touched when the consumer is
    actually parked, so an actively-draining consumer costs senders
    nothing.

    The stdlib's [Condition] has no timed wait, so bounded timeouts are
    implemented by a {!ticker} thread that calls {!expire} on every
    doorbell it covers at a fixed period. [expire] wakes a parked
    consumer only once its [park] deadline has passed, so a consumer
    parked with a later deadline (or none, [infinity]) sleeps through
    the ticks. A [park] deadline (and any transport [recv] timeout built
    on it) is honored within one tick (1 ms in both transports); a
    message arrival or close still wakes the consumer immediately. *)

type doorbell

val doorbell : unit -> doorbell

val ring : doorbell -> unit
(** Wakes the parked consumer, if any. Call after the readiness change is
    already visible (e.g. after the ring-buffer publish): one atomic load
    when nobody is parked. Safe from any thread or domain. *)

val expire : doorbell -> now:float -> unit
(** [expire db ~now] is a ticker's wakeup: it {!ring}s [db] only when
    [now] is at or past the deadline of the consumer parked there. A
    consumer parked with a later deadline is left asleep. *)

val park : doorbell -> deadline:float -> ready:(unit -> bool) -> bool
(** [park db ~deadline ~ready] blocks the calling thread until [ready ()]
    is true (returns [true]) or [Unix.gettimeofday () >= deadline]
    (returns [false], within one ticker period when a {!ticker} covers
    this doorbell). With [deadline = infinity] it returns only once a
    {!ring} finds [ready]. [ready] is re-evaluated on every wakeup and must be
    cheap and lock-free. At most one thread may park a given doorbell at
    a time. *)

type ticker

val start_ticker : period_s:float -> live:(unit -> bool) -> wake:(unit -> unit) -> ticker
(** Background thread calling [wake ()] every [period_s] while [live ()]
    holds; exits (and is collected) the first time [live] is false. Used
    one per ring cluster or TCP endpoint, whose [wake] calls {!expire} on
    each doorbell, and by the threaded runtime's commit waits while a
    waiter is parked, whose [wake] broadcasts only once the earliest
    waiter deadline has passed. *)
