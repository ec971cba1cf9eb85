(** Binary wire codec for protocol messages.

    Length-delimited, big-endian encoding used by the TCP transport and by
    round-trip tests. Decoding is total: malformed input raises
    {!Decode_error} rather than producing garbage. *)

exception Decode_error of string

val encode : Message.t -> string

val decode : string -> Message.t
(** Inverse of {!encode}. Raises {!Decode_error} on malformed input. *)

(** Lower-level entry points, exposed for tests. *)

val encode_block : Buffer.t -> Block.t -> unit

val decode_block : string -> pos:int ref -> Block.t

