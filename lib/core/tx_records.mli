(** Per-transaction bookkeeping of the simulation runtime: who a tx was
    sent to, when it was issued, and the stage stamps its latency
    decomposition is built from.

    The runtime hands out transaction sequence numbers densely from 0, so
    records live in slot [tx.id.seq] of flat arrays: unboxed floats for
    the stamps, ints for target and client, one flag byte. The arrays come
    in fixed-size chunks added as the seqs grow, so growing copies
    nothing. A lookup is two array indexes and stamping allocates
    nothing; {!find} takes the id as two ints, so the runtime looks up a
    committed block's txs from its body's columns. A slot matches a tx only
    if it was recorded for the same client, so a tx the runtime never
    issued has no record.

    A slot's client, target and flags ({!find}, {!client}, {!target},
    {!completed}, {!counted}) stay valid for the life of the records. Its
    stage stamps ({!stamp}, {!set}) are valid only until it completes:
    once every slot recorded in a chunk has completed and a newer chunk
    exists, the chunk's stamp storage is released to a spare list, and
    the next chunk allocated (or a chunk re-recorded into) reuses it. So
    stamp memory is bounded by the chunks that hold an uncompleted tx
    plus the spares, not by the run length; a chunk holding a tx that
    never completes keeps its stamps. Read a slot's stamps before
    {!set_completed}. *)

open Bamboo_types

type t

type stamp =
  | Issued_at  (** client issue time *)
  | Submit_wire  (** client -> replica one-way *)
  | Ingest_wait  (** CPU-queue wait of the ingest charge *)
  | Ingest_service  (** the ingest charge itself *)
  | Arrived_at  (** entered the mempool; negative until then *)
  | Batched_at  (** batched into a proposal; negative until then *)
  | Propose_wait  (** CPU-queue wait of block creation *)
  | Propose_service  (** the block-creation charge *)
  | Nic_ser  (** outbound NIC backlog of the proposal broadcast *)

val create : unit -> t

val record : t -> Tx.t -> target:int -> issued_at:float -> unit
(** [record t tx ~target ~issued_at] (re)sets [tx]'s slot: [target] is
    the replica the client sent it to ([-1] = broadcast), every stage
    stamp but [Issued_at] is reset, and both flags are cleared.
    [tx.id.seq] must be non-negative. *)

val find : t -> client:int -> seq:int -> int
(** The slot recorded for the tx [(client, seq)], or [-1] when there is
    none. The id comes as two ints, read from a block's {!Body} columns,
    so a lookup builds no record. *)

val target : t -> int -> int

val client : t -> int -> int
(** The issuing client; 0 is the open loop. *)

val stamp : t -> int -> stamp -> float

val set : t -> int -> stamp -> float -> unit
(** [stamp] and [set] raise [Invalid_argument] on a slot whose chunk's
    stamps were released; callers skip completed slots. *)

val completed : t -> int -> bool
(** Whether a replica's commit already completed the tx for its client. *)

val set_completed : t -> int -> unit
(** Marks the slot completed. If it was the chunk's last uncompleted
    slot and the chunk is not the newest, its stamps are released. *)

val counted : t -> int -> bool
(** Whether the observer already counted the tx as committed: under
    broadcast submission a tx can appear in two committed blocks, but is
    counted once. *)

val set_counted : t -> int -> unit
