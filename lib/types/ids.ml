type replica = int
type view = int
type height = int
type hash = string

(* Only the four bytes that make up the prefix are encoded. *)
let short h =
  Bamboo_crypto.Sha256.hex
    (if String.length h > 4 then String.sub h 0 4 else h)

let pp_hash fmt h = Format.pp_print_string fmt (short h)
