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
    tag costs two SHA-256 compressions. The prepared keys are never
    mutated after {!setup}. *)

type cell
(** A signature's tag, computed on first read and fixed from then on. *)

type t = private { signer : int; cell : cell }
(** A signature: the signing replica id and its 32-byte tag. The tag is
    read through {!tag}; records are built by {!sign} and {!of_tag}. *)

val wire_size : int
(** Bytes a signature occupies on the wire (64, matching secp256k1). *)

val setup : n:int -> master:string -> registry
(** [setup ~n ~master] derives [n] replica keys from [master]. All replicas
    are given the same registry out of band. *)

val size : registry -> int
(** Number of replicas in the registry. *)

val sign : registry -> signer:int -> string -> t
(** [sign reg ~signer msg] signs [msg]. The signature keeps the signer's
    prepared key and [msg]; the HMAC runs when {!tag} is first called, so
    a signature nothing reads (the simulator's votes and timeouts) costs
    no hashing. Raises [Invalid_argument] if [signer] is out of range. *)

val tag : t -> string
(** The 32-byte HMAC-SHA256 tag. The first read computes it and
    publishes it with [Atomic.compare_and_set]; later reads, from any
    thread or domain, return the published tag. Concurrent first reads
    all compute and return the same tag. *)

val of_tag : signer:int -> string -> t
(** [of_tag ~signer tag] is a signature with a given tag: one decoded
    from the wire, or a forged one in tests. {!verify} judges it like any
    other. *)

val verify : registry -> t -> string -> bool
(** [verify reg s msg] checks that [tag s] is valid for [msg] under
    [s.signer]'s key. False (not an exception) for out-of-range signers. *)

val signs : registry -> int
(** Signatures issued by {!sign} on this registry, whether or not their
    tags are ever read: the HMAC runs when a tag is first read. The
    registry is a per-run value, so the tally is per run. The counter is
    atomic, so the registry may be shared across threads and Pool worker
    domains (the threaded runtime signs from every replica thread)
    without losing counts. *)
