let block_size = 64

(* Both contexts have absorbed exactly one block, the padded key XORed
   with ipad or opad, and are never fed again: [mac_with] feeds copies.
   One prepared key can therefore be shared by every thread and domain
   that signs with it. *)
type key = { inner : Sha256.ctx; outer : Sha256.ctx }

let prepare key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let absorb_pad byte =
    let ctx = Sha256.init () in
    Sha256.feed ctx
      (String.init block_size (fun i ->
           let k = if i < String.length key then Char.code key.[i] else 0 in
           Char.chr (k lxor byte)));
    ctx
  in
  { inner = absorb_pad 0x36; outer = absorb_pad 0x5c }

let mac_with k msg =
  let inner = Sha256.copy k.inner in
  Sha256.feed inner msg;
  let outer = Sha256.copy k.outer in
  Sha256.feed outer (Sha256.finalize inner);
  Sha256.finalize outer

let mac ~key msg = mac_with (prepare key) msg

let mac_hex ~key msg = Sha256.hex (mac ~key msg)

let verify_with k ~tag msg =
  let expected = mac_with k msg in
  if String.length expected <> String.length tag then false
  else begin
    let diff = ref 0 in
    String.iteri
      (fun i c -> diff := !diff lor (Char.code c lxor Char.code tag.[i]))
      expected;
    !diff = 0
  end

let verify ~key ~tag msg = verify_with (prepare key) ~tag msg
