(** Consumer wakeup for lock-free queues, with deadlines.

    The ring buffer ([Bamboo_util.Ring]) never blocks, so a receiver that
    finds it empty needs somewhere to sleep and producers need a cheap way
    to wake it. A {!doorbell} provides that: consumers {!park} on it,
    producers {!ring} it after publishing. The producer fast path is a
    single atomic load — the mutex is only touched when a consumer is
    actually parked, so an actively-draining consumer costs senders
    nothing.

    The stdlib's [Condition] has no timed wait, so [park] honours its own
    deadline through one process-wide deadline thread. A [park] with a
    finite deadline enlists its doorbell with that thread, which checks
    every enlisted doorbell each millisecond and rings one only once the
    earliest deadline registered on it has passed; a consumer parked with
    a later deadline sleeps through the ticks. The thread starts on the
    first bounded park and exits once no bounded park is pending. Parks
    with [deadline = infinity] never enlist. A deadline (and any transport
    [recv] timeout built on it) is honoured within a tick or two; a
    message arrival or close still wakes the consumer immediately. *)

type doorbell

val doorbell : unit -> doorbell

val ring : doorbell -> unit
(** Wakes every thread parked on the doorbell, if any. Call after the
    readiness change is already visible (e.g. after the ring-buffer
    publish): one atomic load when nobody is parked. Safe from any thread
    or domain. *)

val park : doorbell -> deadline:float -> ready:(unit -> bool) -> bool
(** [park db ~deadline ~ready] blocks the calling thread until [ready ()]
    is true (returns [true]) or [Unix.gettimeofday () >= deadline]
    (returns [false]). With [deadline = infinity] it returns only once a
    {!ring} finds [ready]. Several threads may park one doorbell, each
    with its own deadline; a ring wakes them all and each re-checks its
    own [ready].

    [ready] runs with the doorbell's mutex held and is re-evaluated on
    every wakeup, so it must be cheap. It may take another lock [m] only
    if no thread ever calls {!ring} on this doorbell while holding [m]:
    the lock order is the doorbell's mutex before [m]. A producer that
    updates state under [m] rings after releasing it. *)
