(** Client transactions.

    A transaction is identified by the issuing client and a per-client
    sequence number; the payload is opaque bytes whose length is the
    [psize] parameter of Table I. Issue and commit timestamps are recorded
    by the runtime to measure client latency.

    A [t] is the form a transaction takes from its client into a mempool.
    Once batched it lives in a block's packed {!Body} instead, which keeps
    the same fields as columns; code on the commit path reads those
    columns and builds no [t]. *)

type id = { client : int; seq : int }

type t = {
  id : id;
  payload_len : int;
      (** Wire length of the payload. In simulation the bytes are never
          inspected, so only the length is materialized; the deployment
          path carries real bytes in [data]. *)
  data : string;
      (** Actual payload bytes (e.g. a key-value command for the execution
          layer). Empty in simulation workloads. When non-empty its length
          is the effective payload length. *)
}

val make : client:int -> seq:int -> payload_len:int -> t
(** An opaque benchmark transaction: [payload_len] filler bytes, no data. *)

val make_with_data : client:int -> seq:int -> data:string -> t
(** A real command for the execution layer; the payload length is the data
    length. *)

val id_to_string : id -> string
(** Stable textual form, used for hashing and wire encoding. *)

val compare_id : id -> id -> int

val wire_size : t -> int
(** Bytes on the wire: 16-byte id header plus the payload. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
