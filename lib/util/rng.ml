(* PCG-XSH-RR 64/32 (O'Neill 2014): 64-bit LCG state, 32-bit output with a
   random rotation. Small, fast, and passes statistical test batteries far
   beyond what the simulator demands.

   The state and the increment live in one 16-byte buffer, read and
   written with unboxed 64-bit loads and stores, and the 32 output bits
   come back as a native int in [0, 2^32): a draw updates the generator
   in place and allocates nothing. The stream is the textbook one, bit
   for bit; the golden values in the [util.rng] tests pin it. *)

type t = Bytes.t (* state at offset 0, increment at offset 8 *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let multiplier = 6364136223846793005L

let[@inline] step t =
  set64 t 0 (Int64.add (Int64.mul (get64 t 0) multiplier) (get64 t 8))

(* The next 32 output bits, in [0, 2^32). *)
let[@inline] next t =
  let s = get64 t 0 in
  step t;
  let x =
    Int64.to_int
      (Int64.shift_right_logical
         (Int64.logxor (Int64.shift_right_logical s 18) s)
         27)
    land 0xffffffff
  in
  let rot = Int64.to_int (Int64.shift_right_logical s 59) in
  ((x lsr rot) lor (x lsl ((-rot) land 31))) land 0xffffffff

let make ~state ~incr =
  let t = Bytes.create 16 in
  set64 t 0 0L;
  (* The increment must be odd for the LCG to have full period. *)
  set64 t 8 (Int64.logor (Int64.shift_left incr 1) 1L);
  step t;
  set64 t 0 (Int64.add (get64 t 0) state);
  step t;
  t

let create ~seed =
  make ~state:(Int64.of_int seed) ~incr:0xda3e39cb94b95bdbL

let bits32 t = Int32.of_int (next t)
let bits = next
let copy = Bytes.copy

let split t =
  let hi = Int64.of_int (next t) in
  let lo = Int64.of_int (next t) in
  make
    ~state:(Int64.logor (Int64.shift_left hi 32) lo)
    ~incr:(Int64.add (Int64.mul lo 2654435769L) hi)

(* Rejection sampling against modulo bias: draws at or above [limit], the
   largest multiple of [bound] not above 2^32, are redrawn. *)
let rec below t bound limit =
  let r = next t in
  if r < limit then r mod bound else below t bound limit

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound > 1 lsl 32 then invalid_arg "Rng.int: bound above 2^32";
  below t bound ((1 lsl 32) - ((1 lsl 32) mod bound))

let int64 t bound =
  if bound <= 0L then invalid_arg "Rng.int64: bound must be positive";
  let rec loop () =
    let hi = Int64.of_int (next t) in
    let lo = Int64.of_int (next t) in
    let r =
      Int64.logand (Int64.logor (Int64.shift_left hi 32) lo) Int64.max_int
    in
    (* Accept the low bits unless we land in the biased tail. *)
    let m = Int64.rem r bound in
    if Int64.sub r m <= Int64.sub Int64.max_int (Int64.sub bound 1L) then m
    else loop ()
  in
  loop ()

let[@inline] float t x = float_of_int (next t) /. 4294967296.0 *. x
let bool t = next t land 1 = 1

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
