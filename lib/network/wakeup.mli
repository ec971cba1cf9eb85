(** Consumer wakeup for lock-free transports.

    The ring buffer ([Bamboo_util.Ring]) never blocks, so a receiver that
    finds it empty needs somewhere to sleep and producers need a cheap way
    to wake it. A {!doorbell} provides that: the consumer {!park}s on it,
    producers {!ring} it after publishing. The producer fast path is a
    single atomic load — the mutex is only touched when the consumer is
    actually parked, so an actively-draining consumer costs senders
    nothing.

    The stdlib's [Condition] has no timed wait, so bounded timeouts are
    implemented by a {!ticker} thread that rings every parked doorbell it
    covers at a fixed period. Consequently a [park] deadline (and any
    transport [recv] timeout built on it) is honored within one tick
    (1 ms in both transports); the cost is paid only when idle, and a
    message arrival or close wakes the consumer immediately. *)

type doorbell

val doorbell : unit -> doorbell

val ring : doorbell -> unit
(** Wakes the parked consumer, if any. Call after the readiness change is
    already visible (e.g. after the ring-buffer publish): one atomic load
    when nobody is parked. Safe from any thread or domain. *)

val park : doorbell -> deadline:float -> ready:(unit -> bool) -> bool
(** [park db ~deadline ~ready] blocks the calling thread until [ready ()]
    is true (returns [true]) or [Unix.gettimeofday () >= deadline]
    (returns [false], within one ticker period when a {!ticker} covers
    this doorbell). [ready] is re-evaluated on every wakeup and must be
    cheap and lock-free. At most one thread may park a given doorbell at
    a time. *)

type ticker

val start_ticker : period_s:float -> live:(unit -> bool) -> wake:(unit -> unit) -> ticker
(** Background thread calling [wake ()] every [period_s] while [live ()]
    holds; exits (and is collected) the first time [live] is false. Used
    one per ring cluster or TCP endpoint to bound park deadlines. *)
