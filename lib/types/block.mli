(** Blocks: a batch of transactions plus chain metadata, content-addressed
    by SHA-256 over the header.

    Each block carries the hash of its parent and a [justify] QC — the
    highest QC known to the proposer — which is how QCs are "recorded on the
    blockchain along with the relevant block for bookkeeping" (paper §I). *)

type t = {
  hash : Ids.hash;
  view : Ids.view;
  height : Ids.height;
  parent : Ids.hash;
  justify : Qc.t;  (** QC embedded by the proposer. *)
  proposer : Ids.replica;
  body : Body.t;  (** The transactions, packed; see {!Body}. *)
  tx_root : Ids.hash;
      (** Root over the transactions: Merkle or flat, see {!of_body}. *)
}

val genesis : t
(** The unique genesis block: view 0, height 0, no transactions, justified
    by itself. Shared by all replicas of every protocol. *)

val genesis_hash : Ids.hash

val of_body :
  ?root:[ `Merkle | `Flat ] ->
  view:Ids.view ->
  parent:t ->
  justify:Qc.t ->
  proposer:Ids.replica ->
  Body.t ->
  t
(** [of_body] computes height as [parent.height + 1] and the content hash.
    The block keeps the body itself, not a copy. [justify] normally
    certifies [parent], but under a forking attack it may certify an
    ancestor further back. [root] selects the transaction-root
    construction: [`Merkle] (default) is the full tree; [`Flat] hashes
    the concatenated leaves in one pass — collision-resistant but without
    membership proofs — and is used by the simulator, where per-tx hashing
    cost is charged virtually instead (all replicas of a run must agree on
    the mode). Each leaf commits to a transaction's client, seq and data,
    read from the body's columns in order. *)

val create :
  ?root:[ `Merkle | `Flat ] ->
  view:Ids.view ->
  parent:t ->
  justify:Qc.t ->
  proposer:Ids.replica ->
  txs:Tx.t list ->
  unit ->
  t
(** [create ~txs] is {!of_body} over [Body.of_list txs], for tests and
    benchmarks that build blocks from records. *)

val merkle_root : Body.t -> Ids.hash
(** Merkle root over the transactions' leaves (duplicate-last strategy
    for odd levels); the root of an empty body is the hash of the empty
    string. *)

val signed_payload : t -> string
(** What the proposer signs when broadcasting the block. *)

val wire_size : t -> int
(** Bytes on the wire: header + justify QC + transactions. *)

val equal : t -> t -> bool
(** Hash equality. *)

val pp : Format.formatter -> t -> unit
