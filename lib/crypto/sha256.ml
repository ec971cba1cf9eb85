(* FIPS 180-4 SHA-256 on native ints. Each 32-bit word is held as an int
   in [0, 2^32) and every sum is masked back into that range, so a block is
   compressed without boxing an int32. The message schedule array is reused
   across blocks.

   A block is compressed by the CPU's SHA-256 instructions when it has
   them (x86-64 SHA extensions, read once from CPUID at start-up), else by
   [compress] below. Both give the same digest; a context from
   [init_portable] always takes [compress]. *)

external hw_available : unit -> bool = "bamboo_sha256_hw_available" [@@noalloc]

external compress_hw : int array -> Bytes.t -> unit = "bamboo_sha256_compress_hw"
  [@@noalloc]

let accelerated = hw_available ()

let mask = 0xffffffff

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
    0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
    0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
    0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
    0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
    0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
    0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
    0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
    0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
    0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
    0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

(* [block] holds the pending 64-byte block and 64 bytes of slack past
   it, so [feed_fields] can write a short record at [fill] (always below
   64 between calls) and carry what overflows into the next block. *)
type ctx = {
  h : int array; (* 8 working hash values *)
  block : Bytes.t; (* 64-byte input block, then 64 bytes of slack *)
  mutable fill : int; (* bytes buffered in [block] *)
  mutable total : int; (* total message bytes absorbed *)
  w : int array; (* 64-entry message schedule, reused *)
  hw : bool; (* compress with the CPU's SHA-256 instructions *)
}

let make hw =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
        0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    block = Bytes.create 128;
    fill = 0;
    total = 0;
    w = Array.make 64 0;
    hw;
  }

let init () = make accelerated
let init_portable () = make false

(* The schedule is scratch space, so the copy gets its own: a context
   that is only ever copied (an absorbed HMAC pad) is only ever read, and
   copies of it may be taken concurrently from several domains. *)
let copy ctx =
  {
    h = Array.copy ctx.h;
    block = Bytes.copy ctx.block;
    fill = ctx.fill;
    total = ctx.total;
    w = Array.make 64 0;
    hw = ctx.hw;
  }

(* Rotations use the doubled word [xx = x lor (x lsl 32)]: for n <= 31,
   bits n .. n + 31 of [xx] are [rotr x n], so [(xx lsr n) land mask] is
   the rotation, and a sum of three rotations needs one mask, not three.
   Bit 31 of [x] falls off the top of [xx], but no rotation by n >= 1
   reads bit n + 31 > 62. The schedule and round loops index [w] and [k]
   (both of length 64) only within 0 .. 63, so they skip bounds checks. *)
let compress ctx =
  let w = ctx.w and blk = ctx.block in
  for t = 0 to 15 do
    let i = 4 * t in
    w.(t) <-
      (Char.code (Bytes.unsafe_get blk i) lsl 24)
      lor (Char.code (Bytes.unsafe_get blk (i + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get blk (i + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get blk (i + 3))
  done;
  for t = 16 to 63 do
    let x = Array.unsafe_get w (t - 15) and y = Array.unsafe_get w (t - 2) in
    let xx = x lor (x lsl 32) and yy = y lor (y lsl 32) in
    let s0 = ((xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3)) land mask in
    let s1 = ((yy lsr 17) lxor (yy lsr 19) lxor (y lsr 10)) land mask in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1) land mask)
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let ev = !e and av = !a in
    let ee = ev lor (ev lsl 32) and aa = av lor (av lsl 32) in
    let s1 = ((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land mask in
    let ch = !g lxor (ev land (!f lxor !g)) in
    (* [t1] stays below 2^35 unmasked: it only enters masked sums. *)
    let t1 = !hh + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t in
    let s0 = ((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land mask in
    let maj = (av land !b) lor (!c land (av lor !b)) in
    hh := !g;
    g := !f;
    f := ev;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := av;
    a := (t1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let[@inline] compress_block ctx =
  if ctx.hw then compress_hw ctx.h ctx.block else compress ctx

let feed_sub ctx s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Sha256.feed_sub: range out of bounds";
  ctx.total <- ctx.total + len;
  let pos = ref pos and remaining = ref len in
  while !remaining > 0 do
    let take = Int.min !remaining (64 - ctx.fill) in
    Bytes.blit_string s !pos ctx.block ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.fill = 64 then begin
      compress_block ctx;
      ctx.fill <- 0
    end
  done

let feed ctx s = feed_sub ctx s ~pos:0 ~len:(String.length s)

let feed_char ctx c =
  Bytes.unsafe_set ctx.block ctx.fill c;
  ctx.total <- ctx.total + 1;
  ctx.fill <- ctx.fill + 1;
  if ctx.fill = 64 then begin
    compress_block ctx;
    ctx.fill <- 0
  end

(* [pow10.(i)] is 10^i; 10^18 is the largest power below [max_int]. *)
let pow10 =
  let p = Array.make 19 1 in
  for i = 1 to 18 do
    p.(i) <- 10 * p.(i - 1)
  done;
  p

(* Writes the bytes of [string_of_int n] at [pos] of [blk], at most 20,
   and returns the position after them. Digits come from the
   non-positive [m] (the magnitude negated), so [min_int] needs no
   special case: [m mod 10] lies in (-10, 0]. The digit count comes from
   comparisons against [pow10], not from repeated division. *)
let write_int blk pos n =
  let pos =
    if n < 0 then begin
      Bytes.unsafe_set blk pos '-';
      pos + 1
    end
    else pos
  in
  let m = if n < 0 then n else -n in
  let d = ref 1 in
  while !d < 19 && m <= -Array.unsafe_get pow10 !d do
    incr d
  done;
  let stop = pos + !d in
  let m = ref m in
  for i = stop - 1 downto pos do
    Bytes.unsafe_set blk i (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  stop

(* Ends a write of [p - ctx.fill] bytes at [ctx.fill], [p < 128]. A full
   block is compressed and the bytes past it, fewer than 64, move to the
   front, so [fill] stays below 64. *)
let advance ctx p =
  ctx.total <- ctx.total + (p - ctx.fill);
  if p >= 64 then begin
    compress_block ctx;
    if p > 64 then Bytes.unsafe_blit ctx.block 64 ctx.block 0 (p - 64);
    ctx.fill <- p - 64
  end
  else ctx.fill <- p

let feed_int ctx n = advance ctx (write_int ctx.block ctx.fill n)

(* Two ints of at most 20 bytes, three separators and [s] fit in the 64
   bytes of slack when [s] has at most 21. *)
let max_inline = 64 - 20 - 20 - 3

let feed_fields ctx a c b d s e =
  let len = String.length s in
  if len <= max_inline then begin
    let blk = ctx.block in
    let p = write_int blk ctx.fill a in
    Bytes.unsafe_set blk p c;
    let p = write_int blk (p + 1) b in
    Bytes.unsafe_set blk p d;
    if len > 0 then Bytes.unsafe_blit_string s 0 blk (p + 1) len;
    let p = p + 1 + len in
    Bytes.unsafe_set blk p e;
    advance ctx (p + 1)
  end
  else begin
    feed_int ctx a;
    feed_char ctx c;
    feed_int ctx b;
    feed_char ctx d;
    feed ctx s;
    feed_char ctx e
  end

let finalize ctx =
  let bitlen = Int64.mul (Int64.of_int ctx.total) 8L in
  (* Padding: 0x80, zeros, then the 64-bit big-endian bit length. *)
  Bytes.set ctx.block ctx.fill '\x80';
  ctx.fill <- ctx.fill + 1;
  if ctx.fill > 56 then begin
    Bytes.fill ctx.block ctx.fill (64 - ctx.fill) '\x00';
    compress_block ctx;
    ctx.fill <- 0
  end;
  Bytes.fill ctx.block ctx.fill (56 - ctx.fill) '\x00';
  Bytes.set_int64_be ctx.block 56 bitlen;
  compress_block ctx;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
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
