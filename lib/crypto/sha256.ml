(* FIPS 180-4 SHA-256 over int32 words. The message schedule array is reused
   across blocks to avoid per-block allocation. *)

let k =
  [|
    0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl;
    0x59f111f1l; 0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l;
    0x243185bel; 0x550c7dc3l; 0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l;
    0xc19bf174l; 0xe49b69c1l; 0xefbe4786l; 0x0fc19dc6l; 0x240ca1ccl;
    0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal; 0x983e5152l;
    0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
    0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl;
    0x53380d13l; 0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l;
    0xa2bfe8a1l; 0xa81a664bl; 0xc24b8b70l; 0xc76c51a3l; 0xd192e819l;
    0xd6990624l; 0xf40e3585l; 0x106aa070l; 0x19a4c116l; 0x1e376c08l;
    0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al; 0x5b9cca4fl;
    0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
    0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l;
  |]

type ctx = {
  h : int32 array; (* 8 working hash values *)
  block : Bytes.t; (* 64-byte input buffer *)
  mutable fill : int; (* bytes buffered in [block] *)
  mutable total : int; (* total message bytes absorbed *)
  w : int32 array; (* 64-entry message schedule, reused *)
}

let init () =
  {
    h =
      [|
        0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al; 0x510e527fl;
        0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l;
      |];
    block = Bytes.create 64;
    fill = 0;
    total = 0;
    w = Array.make 64 0l;
  }

(* The schedule is scratch space, so the copy gets its own: a context
   that is only ever copied (an absorbed HMAC pad) is only ever read, and
   copies of it may be taken concurrently from several domains. *)
let copy ctx =
  {
    h = Array.copy ctx.h;
    block = Bytes.copy ctx.block;
    fill = ctx.fill;
    total = ctx.total;
    w = Array.make 64 0l;
  }

let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))

let compress ctx =
  let w = ctx.w in
  for t = 0 to 15 do
    w.(t) <- Bytes.get_int32_be ctx.block (4 * t)
  done;
  for t = 16 to 63 do
    let s0 =
      Int32.logxor
        (Int32.logxor (rotr w.(t - 15) 7) (rotr w.(t - 15) 18))
        (Int32.shift_right_logical w.(t - 15) 3)
    in
    let s1 =
      Int32.logxor
        (Int32.logxor (rotr w.(t - 2) 17) (rotr w.(t - 2) 19))
        (Int32.shift_right_logical w.(t - 2) 10)
    in
    w.(t) <- Int32.add (Int32.add (Int32.add w.(t - 16) s0) w.(t - 7)) s1
  done;
  let a = ref ctx.h.(0) and b = ref ctx.h.(1) and c = ref ctx.h.(2) in
  let d = ref ctx.h.(3) and e = ref ctx.h.(4) and f = ref ctx.h.(5) in
  let g = ref ctx.h.(6) and h = ref ctx.h.(7) in
  for t = 0 to 63 do
    let s1 = Int32.logxor (Int32.logxor (rotr !e 6) (rotr !e 11)) (rotr !e 25) in
    let ch = Int32.logxor (Int32.logand !e !f) (Int32.logand (Int32.lognot !e) !g) in
    let t1 = Int32.add (Int32.add (Int32.add (Int32.add !h s1) ch) k.(t)) w.(t) in
    let s0 = Int32.logxor (Int32.logxor (rotr !a 2) (rotr !a 13)) (rotr !a 22) in
    let maj =
      Int32.logxor
        (Int32.logxor (Int32.logand !a !b) (Int32.logand !a !c))
        (Int32.logand !b !c)
    in
    let t2 = Int32.add s0 maj in
    h := !g;
    g := !f;
    f := !e;
    e := Int32.add !d t1;
    d := !c;
    c := !b;
    b := !a;
    a := Int32.add t1 t2
  done;
  ctx.h.(0) <- Int32.add ctx.h.(0) !a;
  ctx.h.(1) <- Int32.add ctx.h.(1) !b;
  ctx.h.(2) <- Int32.add ctx.h.(2) !c;
  ctx.h.(3) <- Int32.add ctx.h.(3) !d;
  ctx.h.(4) <- Int32.add ctx.h.(4) !e;
  ctx.h.(5) <- Int32.add ctx.h.(5) !f;
  ctx.h.(6) <- Int32.add ctx.h.(6) !g;
  ctx.h.(7) <- Int32.add ctx.h.(7) !h

let feed_sub ctx s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Sha256.feed_sub: range out of bounds";
  ctx.total <- ctx.total + len;
  let pos = ref pos and remaining = ref len in
  while !remaining > 0 do
    let take = min !remaining (64 - ctx.fill) in
    Bytes.blit_string s !pos ctx.block ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.fill = 64 then begin
      compress ctx;
      ctx.fill <- 0
    end
  done

let feed ctx s = feed_sub ctx s ~pos:0 ~len:(String.length s)

let feed_char ctx c =
  Bytes.unsafe_set ctx.block ctx.fill c;
  ctx.total <- ctx.total + 1;
  ctx.fill <- ctx.fill + 1;
  if ctx.fill = 64 then begin
    compress ctx;
    ctx.fill <- 0
  end

(* The bytes of [string_of_int n], without the string. Digits come from
   the non-positive [m] (the magnitude negated), so [min_int] needs no
   special case: [m mod 10] lies in (-10, 0]. *)
let feed_int ctx n =
  if n < 0 then feed_char ctx '-';
  let m = if n < 0 then n else -n in
  let rec width m d = if m > -10 then d else width (m / 10) (d + 1) in
  let d = width m 1 in
  if ctx.fill + d <= 64 then begin
    (* The digits fit in the block: write them last to first. *)
    let m = ref m in
    for i = ctx.fill + d - 1 downto ctx.fill do
      Bytes.unsafe_set ctx.block i (Char.unsafe_chr (48 - (!m mod 10)));
      m := !m / 10
    done;
    ctx.total <- ctx.total + d;
    ctx.fill <- ctx.fill + d;
    if ctx.fill = 64 then begin
      compress ctx;
      ctx.fill <- 0
    end
  end
  else begin
    (* They straddle a block boundary: feed them first to last. *)
    let p = ref 1 in
    for _ = 2 to d do
      p := !p * 10
    done;
    while !p > 0 do
      feed_char ctx (Char.unsafe_chr (48 - (m / !p mod 10)));
      p := !p / 10
    done
  end

let finalize ctx =
  let bitlen = Int64.mul (Int64.of_int ctx.total) 8L in
  (* Padding: 0x80, zeros, then the 64-bit big-endian bit length. *)
  Bytes.set ctx.block ctx.fill '\x80';
  ctx.fill <- ctx.fill + 1;
  if ctx.fill > 56 then begin
    Bytes.fill ctx.block ctx.fill (64 - ctx.fill) '\x00';
    compress ctx;
    ctx.fill <- 0
  end;
  Bytes.fill ctx.block ctx.fill (56 - ctx.fill) '\x00';
  Bytes.set_int64_be ctx.block 56 bitlen;
  compress ctx;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) ctx.h.(i)
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let hex_digits = "0123456789abcdef"

let hex s =
  let out = Bytes.create (2 * String.length s) in
  String.iteri
    (fun i c ->
      let c = Char.code c in
      Bytes.set out (2 * i) hex_digits.[c lsr 4];
      Bytes.set out ((2 * i) + 1) hex_digits.[c land 15])
    s;
  Bytes.unsafe_to_string out

let digest_hex s = hex (digest s)
