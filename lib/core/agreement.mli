(** The one agreement oracle (§III-A: no two replicas commit different
    blocks at a height), fed each commit as it lands by both runtimes and
    the trace monitors. It keeps each replica's height and head hash (a
    hash covers its parent's, so the head pins the chain) and the heights
    not yet committed by every replica or in conflict, so its state is
    bounded by the slowest replica's lag, not by run length. *)

open Bamboo_types

type t

val create : replicas:int array -> t
(** An oracle over the given replica ids; pairs are listed in this order. *)

val commit : t -> replica:int -> Block.t -> unit
(** Blocks with one hash must also carry the same (client, seq) order;
    bodies are compared only when the hashes match and the blocks are not
    physically equal, so replicas sharing block values pay nothing. *)

val commit_hash : t -> replica:int -> height:Ids.height -> Ids.hash -> unit
(** {!commit} for a plane that knows only the hash (traces). *)

type conflict =
  | Recommitted of { replica : int; height : Ids.height; first : Ids.hash; second : Ids.hash }
      (** The replica committed the height again, with another block. *)
  | Diverged of { i : int; j : int; height : Ids.height; hash_i : Ids.hash; hash_j : Ids.hash }
      (** Replicas [i < j] committed different blocks; the lowest such height. *)
  | Tx_order of { i : int; j : int; upto : Ids.height }
      (** Replicas [i < j] agree on every common hash but not on the txs
          under one; [upto] is the lower of their committed heights. *)

type verdict = {
  heads : Ids.hash array;
      (** Per replica, in [replicas] order; [Block.genesis_hash] before any commit. *)
  conflicts : conflict list;  (** Re-commits as found, then pairs ascending. *)
}

val verdict : t -> verdict

val open_heights : t -> int
(** Heights held: not yet committed by every replica, or in conflict. *)
