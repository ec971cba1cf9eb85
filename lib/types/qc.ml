type t = {
  block : Ids.hash;
  view : Ids.view;
  height : Ids.height;
  sigs : Bamboo_crypto.Sig.t list;
}

let genesis ~block = { block; view = 0; height = 0; sigs = [] }

let is_genesis qc = qc.view = 0 && qc.sigs = []

let compare_by_view a b = Int.compare a.view b.view

let max_by_view a b = if compare_by_view a b >= 0 then a else b

let wire_size qc =
  44 + (List.length qc.sigs * Bamboo_crypto.Sig.wire_size)

let signed_payload ~block ~view = String.concat "|" [ "vote"; string_of_int view; block ]

(* A key that pins down the certificate's entire content — block, view,
   height and every (signer, tag) pair — so a verification cache keyed on
   it can never confuse a tampered certificate with a previously verified
   one. Plain string equality, no lossy hashing: no collision can launder
   a forged QC through the cache. *)
let cache_key qc =
  let b = Buffer.create (64 + (List.length qc.sigs * 80)) in
  Buffer.add_string b qc.block;
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int qc.view);
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int qc.height);
  List.iter
    (fun (s : Bamboo_crypto.Sig.t) ->
      Buffer.add_char b '|';
      Buffer.add_string b (string_of_int s.signer);
      Buffer.add_char b ':';
      Buffer.add_string b (Bamboo_crypto.Sig.tag s))
    qc.sigs;
  Buffer.contents b

let verify reg ~quorum qc =
  if is_genesis qc then true
  else begin
    let payload = signed_payload ~block:qc.block ~view:qc.view in
    let distinct_valid =
      List.fold_left
        (fun acc (s : Bamboo_crypto.Sig.t) ->
          if List.mem s.signer acc then acc
          else if Bamboo_crypto.Sig.verify reg s payload then s.signer :: acc
          else acc)
        [] qc.sigs
    in
    List.length distinct_valid >= quorum
  end

let pp fmt qc =
  Format.fprintf fmt "QC<v%d,h%d,%a,%d sigs>" qc.view qc.height Ids.pp_hash
    qc.block (List.length qc.sigs)
