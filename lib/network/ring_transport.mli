(** Lock-free ring transport: the in-process message plane, the analogue
    of Bamboo's Go-channel transport for "single-machine simulation"
    (paper §III-E). A whole cluster runs inside one process with one OS
    thread per replica.

    Each endpoint receives through one {!Inbox}: a bounded MPSC
    {!Bamboo_util.Ring} that all peers produce into lock-free (an atomic
    slot claim + a publish store per message), with the owning replica
    thread as the single consumer. [recv_batch] drains a whole wakeup's
    worth of messages in one O(1)-per-element pass, which is what
    {!Threaded_runtime.Make_batched} runs on. A message arrival or a
    [close] wakes a parked receiver immediately; receive timeouts are
    park deadlines, honoured by {!Wakeup}'s process-wide deadline thread,
    so the cluster starts no thread of its own.

    Backpressure: the inbox is bounded ([?capacity], default 4096,
    rounded to a power of two). A sender finding it full yields and
    retries a bounded number of times, then drops the message and counts
    it ([ring_transport_dropped_full]) — chained-BFT protocols treat
    message loss as silence, so overload degrades like a lossy link
    instead of growing an unbounded queue. *)

type cluster

type t

val create_cluster : ?capacity:int -> n:int -> unit -> cluster
(** Endpoints for replicas [0 .. n-1], each with a [capacity]-slot
    inbox. *)

val endpoint : cluster -> int -> t

val publish_metrics : cluster -> Bamboo_metrics.Registry.t -> unit
(** Publishes the cluster's observe-only tallies (per-endpoint counts of
    messages accepted into and dropped from its inbox, received
    message/batch counts, drained batch-size histogram, peak inbox depth)
    into [reg], once, after the cluster has stopped. The hot paths
    themselves only bump plain ints and atomics. *)

include Transport.S with type t := t
