(** SHA-256 (FIPS 180-4), implemented from scratch.

    Blocks are content-addressed by this hash (the paper's chains are
    "cryptographically linked together by hashes"). Both one-shot and
    incremental interfaces are provided; the incremental form is used by the
    wire codec to hash streamed fields without concatenation.

    Absorbing allocates nothing: {!feed}, {!feed_sub}, {!feed_char},
    {!feed_int} and {!feed_fields} compress each full 64-byte block in
    place, so hashing a block's transactions costs a constant number of
    words however many there are. Of the incremental calls, only {!init}, {!copy} and
    {!finalize} allocate. *)

type ctx

val init : unit -> ctx

val accelerated : bool
(** Whether {!init}'s contexts compress with the CPU's SHA-256
    instructions: [true] on an x86-64 CPU whose CPUID reports SHA, SSSE3
    and SSE4.1, read once at start-up. Otherwise every block goes through
    the portable OCaml compression. Both paths give the same digests;
    nothing else selects between them. *)

val init_portable : unit -> ctx
(** [init ()] whose blocks always go through the portable OCaml
    compression, whatever the CPU: the reference the instruction path is
    tested against, and what the [sha256_1KiB] bench micro times. *)

val feed : ctx -> string -> unit
(** [feed ctx s] absorbs all of [s]. May be called repeatedly. *)

val feed_sub : ctx -> string -> pos:int -> len:int -> unit

val feed_char : ctx -> char -> unit
(** [feed_char ctx c] is [feed ctx (String.make 1 c)]. *)

val feed_int : ctx -> int -> unit
(** [feed_int ctx n] is [feed ctx (string_of_int n)], without building the
    string: the decimal digits, after a ['-'] when [n] is negative. *)

val feed_fields : ctx -> int -> char -> int -> char -> string -> char -> unit
(** [feed_fields ctx a c b d s e] is [feed_int ctx a; feed_char ctx c;
    feed_int ctx b; feed_char ctx d; feed ctx s; feed_char ctx e]. When
    [s] has at most 21 bytes the whole record is written into the pending
    block with one bounds check, which is how a block's flat root absorbs
    each [client:seq|data,] leaf. *)

val copy : ctx -> ctx
(** [copy ctx] is an independent context in the same state: feeding
    either one leaves the other unchanged. [copy] only reads [ctx], so
    one absorbed prefix (an HMAC key's pad) can be shared read-only and
    copied from several threads or domains at once. *)

val finalize : ctx -> string
(** [finalize ctx] is the 32-byte raw digest. The context must not be used
    afterwards. *)

val digest : string -> string
(** One-shot 32-byte raw digest. *)

val hex : string -> string
(** Lowercase hex rendering of a raw digest (or any string). *)

val digest_hex : string -> string
(** [digest_hex s = hex (digest s)]. *)
