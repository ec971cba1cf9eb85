type replica = int
type view = int
type height = int
type hash = string

(* A digest's bytes are uniform, so its first eight already make a good
   hash; shorter keys (test fixtures) take the generic string hash. *)
let hash_key (h : hash) =
  if String.length h >= 8 then Int64.to_int (String.get_int64_le h 0) land max_int
  else String.hash h

module Hash_tbl = struct
  module H = Hashtbl.Make (struct
    type t = hash

    let equal = String.equal
    let hash = hash_key
  end)

  include H

  include Bamboo_util.Tbl.Sorted (struct
    type key = hash
    type 'a t = 'a H.t

    let fold = H.fold
  end)
end

(* Only the four bytes that make up the prefix are encoded. *)
let short h =
  Bamboo_crypto.Sha256.hex
    (if String.length h > 4 then String.sub h 0 4 else h)

let pp_hash fmt h = Format.pp_print_string fmt (short h)
