(** A block's transactions, packed.

    A body is immutable and stores its transactions as flat columns:
    client, seq and payload length in int arrays, payload bytes in a
    string array. The length column is replaced by one int when every
    payload has the same length, and the data column is left empty when
    every payload is empty, as in simulation workloads. A body of [k]
    transactions therefore costs 2 words a tx with a uniform length and
    no data, one more for a length column and one more for data, plus a
    constant. It holds no per-tx record and no cons cell. The committed
    chain keeps every block's body for the run, so this is most of the
    simulator's heap under load.

    Transaction [i] is read with {!client}, {!seq}, {!payload_len} and
    {!data}. {!tx} builds a {!Tx.t} for the few places that need one, such
    as re-queueing a forked block's transactions. *)

type t

val empty : t

val length : t -> int

val client : t -> int -> int
(** [client b i] is the issuing client of transaction [i]. *)

val seq : t -> int -> int

val payload_len : t -> int -> int

val data : t -> int -> string
(** The payload bytes of transaction [i]; [""] for filler traffic. *)

val tx : t -> int -> Tx.t
(** Builds transaction [i] as a record, equal to the one packed. *)

val of_list : Tx.t list -> t

val to_list : t -> Tx.t list

val wire_size : t -> int
(** Sum of {!Tx.wire_size} over the transactions. *)

(** Fills a body one transaction at a time, up to a capacity fixed at
    creation. After {!Builder.finish}, the builder must not be used
    again: the body may share its arrays. *)
module Builder : sig
  type body := t

  type t

  val create : int -> t
  (** [create cap] makes room for [cap] transactions; [cap >= 0]. *)

  val add : t -> client:int -> seq:int -> payload_len:int -> data:string -> unit
  (** Appends one transaction; raises [Invalid_argument] when full. *)

  val add_tx : t -> Tx.t -> unit

  val length : t -> int

  val finish : t -> body
  (** The transactions added so far, in order. *)
end
