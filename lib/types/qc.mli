(** Quorum certificates.

    A QC certifies one block: it aggregates votes from a quorum (2f+1 of
    n = 3f+1 replicas). Following the paper, QCs are recorded on-chain as a
    block's [justify] pointer, and "a block with a valid QC is considered
    certified". *)

type t = {
  block : Ids.hash;  (** Hash of the certified block. *)
  view : Ids.view;  (** View of the certified block. *)
  height : Ids.height;  (** Height of the certified block. *)
  sigs : Bamboo_crypto.Sig.t list;
      (** Vote signatures; empty only for the genesis QC. *)
}

val genesis : block:Ids.hash -> t
(** Certificate for the genesis block: view 0, height 0, no signatures.
    All replicas accept it axiomatically. *)

val is_genesis : t -> bool

val max_by_view : t -> t -> t

val wire_size : t -> int
(** Bytes on the wire: 44-byte header plus one signature per voter. *)

val signed_payload : block:Ids.hash -> view:Ids.view -> string
(** The byte string replicas sign when voting for a block; shared between
    vote creation and QC verification. *)

val cache_key : t -> string
(** A key capturing the certificate's entire content (block, view, height
    and every signer/tag pair), for verification caches. Two QCs share a
    key iff they are byte-identical, so a cache keyed on it cannot accept
    a tampered certificate on the strength of a previously verified
    one. *)

val verify : Bamboo_crypto.Sig.registry -> quorum:int -> t -> bool
(** [verify reg ~quorum qc] checks that [qc] carries at least [quorum]
    valid signatures from distinct replicas over {!signed_payload}.
    The genesis QC always verifies. *)

val pp : Format.formatter -> t -> unit
