(** Identifier types shared across the protocol stack. *)

type replica = int
(** Replica identifier in [\[0, n)]. *)

type view = int
(** Protocol view number; views start at 1, the genesis block has view 0. *)

type height = int
(** Block height; the genesis block has height 0. *)

type hash = string
(** 32-byte SHA-256 digest addressing a block. *)

val hash_key : hash -> int
(** A non-negative hash of a digest: its first 8 bytes read as a
    little-endian int, or [String.hash] for keys shorter than 8 bytes.
    Allocates nothing. *)

(** A hash table keyed by block digests, hashed with {!hash_key} and
    compared with [String.equal]. Its bucket order is unspecified: read
    it in order only through the sorted views. *)
module Hash_tbl : sig
  include Hashtbl.S with type key = hash

  val sorted_filter_map :
    compare:('a -> 'a -> int) -> (hash -> 'v -> 'a option) -> 'v t -> 'a list

  val sorted_bindings :
    compare:(hash -> hash -> int) -> 'v t -> (hash * 'v) list

  val sorted_keys : compare:(hash -> hash -> int) -> 'v t -> hash list
end

val pp_hash : Format.formatter -> hash -> unit
(** Prints an 8-hex-character prefix, enough to identify blocks in logs. *)

val short : hash -> string
(** 8-character hex prefix of a hash. *)
