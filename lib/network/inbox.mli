(** The bounded receive queue both transports deliver into: one
    {!Bamboo_util.Ring} of messages, many producers, one consumer.

    Producers push lock-free and {!Wakeup.ring} the consumer's doorbell;
    the consumer drains a whole wakeup's worth of messages per
    {!recv_batch} and parks on the doorbell when the queue is empty, so
    a message arrival or {!close} wakes it at once and a timeout is
    honoured by {!Wakeup}'s deadline thread.

    Backpressure: a producer finding the queue full yields and retries a
    bounded number of times, then drops the message and counts it —
    chained-BFT protocols treat message loss as silence, so overload
    degrades like a lossy link instead of growing an unbounded queue. *)

type t

val create : capacity:int -> t
(** An empty inbox of at least [capacity] slots (rounded up to a power
    of two). *)

val push : t -> Bamboo_types.Message.t -> bool
(** Enqueues and wakes the consumer; safe from any thread. Returns
    whether the message was accepted: [false] when the inbox is closed
    (silently) or stayed full through every retry (counted in
    [dropped]). *)

val recv_batch : t -> timeout_s:float -> max:int -> Bamboo_types.Message.t list
(** {!Transport.S.recv_batch}: waits up to [timeout_s] for a message,
    then returns up to [max] of them in FIFO order; [[]] on timeout or
    once closed. Single consumer. *)

val recv : t -> timeout_s:float -> Bamboo_types.Message.t option
(** [recv_batch] with [max = 1]. *)

val close : t -> unit
(** Refuses further pushes and wakes a parked consumer; later receives
    return nothing. Idempotent. *)

type stats = {
  received : int;  (** Messages drained by the consumer. *)
  batches : int;  (** Non-empty drains. *)
  batch_hist : int array;
      (** Drain sizes, log2-bucketed: bucket [b] counts drains of
          [2^b .. 2^(b+1) - 1] messages; the last bucket is open. *)
  peak_depth : int;  (** Highest occupancy seen at a drain. *)
  dropped : int;  (** Messages dropped on a full inbox. *)
}

val stats : t -> stats
(** Snapshot of the tallies. [dropped] is exact; the rest are owned by
    the consumer thread and racy to read elsewhere. *)
