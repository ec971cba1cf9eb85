type registry = {
  keys : Hmac.key array; (* read-only once built; shared across domains *)
  n_signs : int Atomic.t;
}

type t = { signer : int; tag : string }

let wire_size = 64

let setup ~n ~master =
  if n <= 0 then invalid_arg "Sig.setup: n must be positive";
  let master = Hmac.prepare master in
  let derive i =
    Hmac.prepare (Hmac.mac_with master ("bamboo-replica-key-" ^ string_of_int i))
  in
  { keys = Array.init n derive; n_signs = Atomic.make 0 }

let size reg = Array.length reg.keys

let sign reg ~signer msg =
  if signer < 0 || signer >= Array.length reg.keys then
    invalid_arg "Sig.sign: signer out of range";
  Atomic.incr reg.n_signs;
  { signer; tag = Hmac.mac_with reg.keys.(signer) msg }

let verify reg s msg =
  if s.signer < 0 || s.signer >= Array.length reg.keys then false
  else Hmac.verify_with reg.keys.(s.signer) ~tag:s.tag msg

let signs reg = Atomic.get reg.n_signs
