type registry = {
  keys : Hmac.key array; (* read-only once built; shared across domains *)
  n_signs : int Atomic.t;
}

(* A tag is [Unread] from {!sign} until something reads it. The first
   read computes the HMAC and publishes it; the prepared key is
   immutable and the payload a string, so concurrent first reads compute
   the same tag and whichever CAS loses simply discards its copy. *)
type state = Tag of string | Unread of { key : Hmac.key; msg : string }

type cell = state Atomic.t

type t = { signer : int; cell : cell }

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
  { signer; cell = Atomic.make (Unread { key = reg.keys.(signer); msg }) }

let of_tag ~signer tag = { signer; cell = Atomic.make (Tag tag) }

let tag s =
  match Atomic.get s.cell with
  | Tag tag -> tag
  | Unread { key; msg } as seen ->
      let tag = Hmac.mac_with key msg in
      ignore (Atomic.compare_and_set s.cell seen (Tag tag) : bool);
      tag

let verify reg s msg =
  if s.signer < 0 || s.signer >= Array.length reg.keys then false
  else Hmac.verify_with reg.keys.(s.signer) ~tag:(tag s) msg

let signs reg = Atomic.get reg.n_signs
