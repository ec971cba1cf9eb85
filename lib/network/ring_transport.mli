(** Lock-free ring transport: the in-process message plane, the analogue
    of Bamboo's Go-channel transport for "single-machine simulation"
    (paper §III-E). A whole cluster runs inside one process with one OS
    thread per replica.

    Each endpoint's inbox is one bounded MPSC {!Bamboo_util.Ring}: all
    peers produce into it lock-free (an atomic slot claim + a publish
    store per message), and the owning replica thread is the single
    consumer. [recv_batch] drains a whole wakeup's worth of messages in
    one O(1)-per-element pass, which is what
    {!Threaded_runtime.Make_batched} runs on.

    Blocking uses a {!Wakeup.doorbell} per endpoint: senders touch it with
    one atomic load when the receiver is awake, a message arrival or a
    [close] wakes a parked receiver immediately, and receive timeouts are
    honored within one tick of the cluster's 1 ms ticker.

    Backpressure: the inbox is bounded ([?capacity], default 4096,
    rounded to a power of two). A sender finding it full yields and
    retries a bounded number of times, then drops the message and counts
    it ([ring_transport_dropped_full]) — chained-BFT protocols treat
    message loss as silence, so overload degrades like a lossy link
    instead of growing an unbounded queue. *)

type cluster

type t

val create_cluster : ?capacity:int -> n:int -> unit -> cluster
(** Endpoints for replicas [0 .. n-1], each with a [capacity]-slot inbox
    ring; starts the cluster ticker thread (exits when all endpoints are
    closed). *)

val endpoint : cluster -> int -> t

val publish_metrics : cluster -> Bamboo_metrics.Registry.t -> unit
(** Publishes the cluster's observe-only tallies (per-endpoint send/drop
    counters, received message/batch counts, drained batch-size histogram,
    peak inbox depth) into [reg], once, after the cluster has stopped. The
    hot paths themselves only bump plain ints and atomics. *)

include Transport.S with type t := t
