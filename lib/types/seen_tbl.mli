(** A replica's message de-duplication set (echo suppression).

    Its members are exactly the {!Message.key} strings of the messages
    added, but proposals, votes and timeouts from ids in [\[0, n)] are
    stored and probed without building a key: a proposal by its block
    hash, a vote as one bit of a per-block voter set, a timeout as one
    bit of a per-view sender set. Other ids and block requests are kept
    by their key string. *)

type t

val create : n:int -> t
(** An empty set for replica ids in [\[0, n)]. Raises [Invalid_argument]
    if [n <= 0]. *)

val mem : t -> Message.t -> bool
(** Whether a message with the same {!Message.key} was added. Allocates
    nothing for a proposal, or for a vote or timeout from an id in
    [\[0, n)]. *)

val add : t -> Message.t -> bool
(** Adds the message's key; [true] if it was not a member yet. *)

val sorted_keys : t -> string list
(** The {!Message.key} of every member, sorted with [String.compare]. *)
