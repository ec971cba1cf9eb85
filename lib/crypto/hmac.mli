(** HMAC-SHA256 (RFC 2104). *)

type key
(** A key with its ipad and opad blocks absorbed once, so each MAC under
    it costs two SHA-256 compressions instead of four. A prepared key is
    immutable: it may be shared across threads and domains. *)

val prepare : string -> key
(** [prepare key] normalises [key] (hashed if longer than 64 bytes,
    zero-padded to 64) and absorbs its two pads. *)

val mac_with : key -> string -> string
(** [mac_with k msg] is the 32-byte HMAC-SHA256 tag of [msg] under [k]. *)

val verify_with : key -> tag:string -> string -> bool
(** Constant-time comparison of [tag] against [mac_with k msg]. *)

val mac : key:string -> string -> string
(** [mac ~key msg = mac_with (prepare key) msg]. *)

val mac_hex : key:string -> string -> string

val verify : key:string -> tag:string -> string -> bool
(** [verify ~key ~tag msg = verify_with (prepare key) ~tag msg]. *)
