(** The memory pool (paper §III-E): "a bidirectional queue in which new
    transactions are inserted from the back while old transactions (from
    forked blocks) are inserted from the front. Each node maintains a local
    memory pool to avoid duplication check."

    Capacity is the [memsize] parameter of Table I; adds beyond capacity
    are rejected so that client back-pressure can be modelled. Transactions
    batched into a proposal stay out of the pool unless explicitly returned
    ([requeue_front]) when their block is overwritten by a fork, or dropped
    for good ([forget]) once a block commits.

    Memory is bounded by the pool's window, not by the run: only queued
    and in-flight ids are kept per tx, and committed ids go to a
    {!Committed} set.

    Queued transactions are records; a batch leaves the pool as a packed
    {!Body.t}, which the proposal's block keeps as it is. [forget] and
    [requeue_front] read ids straight from a body's columns. *)

open Bamboo_types

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 1000 (the paper's [memsize] default). *)

val length : t -> int

val is_empty : t -> bool

val capacity : t -> int

val add : t -> Tx.t -> bool
(** [add t tx] enqueues a fresh transaction at the back. Returns [false]
    (and leaves the pool unchanged) when the pool is full or [tx] is
    already present or in flight. *)

val requeue_front : t -> Body.t -> int
(** [requeue_front t body] returns transactions recovered from a forked
    block to the front of the queue, preserving their relative order; each
    re-inserted one is rebuilt as a record equal to the one batched. Only
    transactions this pool batched ([In_flight]) are re-inserted;
    committed, still-queued, foreign, or over-capacity transactions are
    skipped. Returns how many were re-inserted. *)

val batch : t -> max:int -> Body.t
(** [batch t ~max] removes up to [max] transactions from the front for
    inclusion in a block ("the proposer batches all the transactions in the
    memory pool if the amount is less than the target block size"), packed
    in queue order. The taken transactions are remembered as in-flight for
    deduplication. *)

val forget : t -> Body.t -> unit
(** [forget t body] marks a committed block's transactions as durably
    committed: they will never be accepted or re-queued again. A tx need
    not have been added first (client-broadcast mode commits txs other
    replicas proposed). *)

val contains : t -> Tx.id -> bool
(** Whether the id is queued or in flight (not yet forgotten). *)

val max_displacement : t -> int
(** The longest probe walk in the pool's id table, in slots; for tests. *)

type stats = {
  peak_occupancy : int;  (** high-water mark of {!length} *)
  batches : int;  (** {!batch} calls over the pool's lifetime *)
  batched_txs : int;  (** transactions those batches removed *)
  rejected_full : int;  (** {!add} refusals because the pool was full *)
  rejected_dup : int;  (** {!add} refusals because the tx was known *)
}

val stats : t -> stats
(** Observe-only tallies for the metrics layer. Mean batch fill is
    [batched_txs / batches] against the configured block size; the
    rejection split makes load-shedding observable rather than silent
    (capacity rejections are the backpressure signal the ingest path
    surfaces to clients). *)
