type t = {
  view : Ids.view;
  high_qc : Qc.t;
  sender : Ids.replica;
  signature : Bamboo_crypto.Sig.t;
}

let signed_payload ~view = "timeout|" ^ string_of_int view

let create reg ~sender ~view ~high_qc =
  let signature = Bamboo_crypto.Sig.sign reg ~signer:sender (signed_payload ~view) in
  { view; high_qc; sender; signature }

let verify reg t =
  t.signature.Bamboo_crypto.Sig.signer = t.sender
  && Bamboo_crypto.Sig.verify reg t.signature (signed_payload ~view:t.view)

let wire_size t = 8 + 8 + Bamboo_crypto.Sig.wire_size + Qc.wire_size t.high_qc

let pp fmt t = Format.fprintf fmt "timeout<v%d,from %d>" t.view t.sender
