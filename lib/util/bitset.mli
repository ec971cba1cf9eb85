(** A set of ints in [\[0, n)] as [n] bits, for replica ids: membership
    and insertion are one byte read (and write), with no allocation. *)

type t

val create : n:int -> t
(** An empty set for ints in [\[0, n)]. *)

val mem : t -> int -> bool
(** [i] must be in [\[0, n)]: the byte access is unchecked. *)

val add : t -> int -> bool
(** Adds [i], which must be in [\[0, n)]; false if it was already a
    member. *)

val iter : (int -> unit) -> t -> unit
(** Members in increasing order. *)
