type id = { client : int; seq : int }

type t = { id : id; payload_len : int; data : string }

let make ~client ~seq ~payload_len =
  if payload_len < 0 then invalid_arg "Tx.make: negative payload length";
  { id = { client; seq }; payload_len; data = "" }

let make_with_data ~client ~seq ~data =
  { id = { client; seq }; payload_len = String.length data; data }

let id_to_string id = string_of_int id.client ^ ":" ^ string_of_int id.seq

let compare_id a b =
  let c = Int.compare a.client b.client in
  if c <> 0 then c else Int.compare a.seq b.seq

let wire_size t = 16 + t.payload_len

let equal a b =
  compare_id a.id b.id = 0
  && a.payload_len = b.payload_len
  && String.equal a.data b.data

let pp fmt t = Format.fprintf fmt "tx<%s,%dB>" (id_to_string t.id) t.payload_len
