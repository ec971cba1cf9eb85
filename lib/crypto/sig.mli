(** Authentication for protocol messages.

    The paper's Bamboo uses secp256k1 signatures. This reproduction
    substitutes an HMAC-based scheme (documented in DESIGN.md): each replica
    holds a secret key derived from a shared master seed; a signature is the
    HMAC-SHA256 tag of the message under the signer's key, and verification
    recomputes it from the registry. Signing/verification CPU cost and the
    64-byte wire size of a secp256k1 signature are charged explicitly by the
    simulator's cost model, so performance behaviour is preserved.

    This scheme authenticates honest traffic and detects corruption, but it
    is not unforgeable against a Byzantine signer that leaks its key; the
    attacks studied in the paper (forking, silence) never forge messages, so
    this does not affect any experiment. *)

type registry
(** Public registry of per-replica keys for a cluster of [n] replicas.
    Each key is prepared once at {!setup} ({!Hmac.prepare}), so a
    signature costs two SHA-256 compressions. The prepared keys are never
    mutated after {!setup}. *)

type t = { signer : int; tag : string }
(** A signature: the signing replica id and its 32-byte tag. *)

val wire_size : int
(** Bytes a signature occupies on the wire (64, matching secp256k1). *)

val setup : n:int -> master:string -> registry
(** [setup ~n ~master] derives [n] replica keys from [master]. All replicas
    are given the same registry out of band. *)

val size : registry -> int
(** Number of replicas in the registry. *)

val sign : registry -> signer:int -> string -> t
(** [sign reg ~signer msg] signs [msg]. Raises [Invalid_argument] if
    [signer] is out of range. *)

val verify : registry -> t -> string -> bool
(** [verify reg s msg] checks that [s.tag] is valid for [msg] under
    [s.signer]'s key. False (not an exception) for out-of-range signers. *)

val signs : registry -> int
(** HMAC computations performed by {!sign} on this registry. The registry
    is a per-run value, so the tally is per run. The counter is atomic,
    so the registry may be shared across threads and Pool worker domains
    (the threaded runtime signs from every replica thread) without
    losing counts. *)
