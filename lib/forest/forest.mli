(** The Block Forest (paper §III-A).

    Tracks all known blocks as a set of trees rooted at the last committed
    block. Heights increase monotonically along parent links; a vertex has
    one parent of strictly smaller height and any number of children. The
    forest "guarantees that there is always a main branch, or main chain,
    which contains all the committed blocks cryptographically linked in the
    proposed order", and supports pruning everything that can no longer be
    committed.

    Committing a block finalizes its whole uncommitted ancestor path
    (prefix finalization) and prunes every conflicting branch; the txs of
    pruned ("forked", i.e. overwritten) blocks are handed back to the
    caller for mempool re-insertion, as in the paper's Byzantine
    experiments. *)

open Bamboo_types

type t

type add_result =
  | Added
  | Duplicate
  | Missing_parent  (** Parent unknown; the caller should buffer the block. *)
  | Below_prune_horizon
      (** The block conflicts with the committed prefix (its height is not
          above the committed height on a committed branch) and was
          discarded. *)
  | Bad_height
      (** The block's height is not its parent's plus one, so it extends
          no valid chain; it was discarded. *)

type commit_error =
  | Unknown_block
  | Conflicts_with_committed
      (** The block does not descend from the last committed block —
          committing it would fork the finalized chain. *)
  | Already_committed

val create : unit -> t
(** A forest containing only the genesis block, already committed. *)

val add : t -> Block.t -> add_result

val find : t -> Ids.hash -> Block.t option
(** Looks up both committed and uncommitted blocks. Allocates nothing. *)

val mem : t -> Ids.hash -> bool

val parent : t -> Block.t -> Block.t option

val children : t -> Ids.hash -> Block.t list
(** Uncommitted children. Always [[]] for a committed block other than
    the head. *)

val size : t -> int
(** Number of uncommitted blocks currently tracked. *)

val last_committed : t -> Block.t

val committed_height : t -> Ids.height

val committed_count : t -> int
(** Committed blocks including genesis; O(1). *)

val committed_at : t -> Ids.height -> Block.t option
(** Main-chain block at the given height, if committed; this backs the
    paper's cross-node consistency check by height. *)

val extends : t -> descendant:Ids.hash -> ancestor:Ids.hash -> bool
(** True when [ancestor] is reachable from [descendant] by parent links
    (reflexively). *)

val commit :
  t -> Ids.hash -> (Block.t list * Block.t list, commit_error) result
(** [commit t h] finalizes block [h] and all its uncommitted ancestors.
    Returns [(newly_committed, forked)]: the first list is ordered by
    increasing height; the second holds all pruned conflicting blocks whose
    transactions must be returned to the mempool, ordered by height and
    then by block hash. *)

val fold_uncommitted : t -> ('a -> Block.t -> 'a) -> 'a -> 'a
(** Folds over all uncommitted blocks in block-hash order, so the result
    is independent of hash-table bucket layout. *)

val tip_candidates : t -> Block.t list
(** Leaves of the forest (blocks with no children), highest first;
    equal-height tips tie-break on block hash. *)
