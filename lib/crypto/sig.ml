type registry = {
  keys : string array;
  n_signs : int Atomic.t;
}

type t = { signer : int; tag : string }

let wire_size = 64

let setup ~n ~master =
  if n <= 0 then invalid_arg "Sig.setup: n must be positive";
  let derive i = Hmac.mac ~key:master (Printf.sprintf "bamboo-replica-key-%d" i) in
  { keys = Array.init n derive; n_signs = Atomic.make 0 }

let size reg = Array.length reg.keys

let sign reg ~signer msg =
  if signer < 0 || signer >= Array.length reg.keys then
    invalid_arg "Sig.sign: signer out of range";
  Atomic.incr reg.n_signs;
  { signer; tag = Hmac.mac ~key:reg.keys.(signer) msg }

let verify reg s msg =
  if s.signer < 0 || s.signer >= Array.length reg.keys then false
  else Hmac.verify ~key:reg.keys.(s.signer) ~tag:s.tag msg

let signs reg = Atomic.get reg.n_signs
