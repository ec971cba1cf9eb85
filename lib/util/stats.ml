(* The running moments sit in a flat float array, so updating them
   stores unboxed floats and [add] allocates only when the sample buffer
   grows. *)
type t = {
  mutable n : int;
  acc : Float.Array.t; (* mean, m2, min, max, total *)
  mutable samples : float array;
  mutable len : int;
}

let mean_ = 0
let m2_ = 1
let min_ = 2
let max_ = 3
let total_ = 4

let create () =
  let acc = Float.Array.make 5 0.0 in
  Float.Array.set acc min_ infinity;
  Float.Array.set acc max_ neg_infinity;
  { n = 0; acc; samples = Array.make 64 0.0; len = 0 }

let grow t =
  let buf = Array.make (2 * t.len) 0.0 in
  Array.blit t.samples 0 buf 0 t.len;
  t.samples <- buf

let[@inline] add t x =
  t.n <- t.n + 1;
  let acc = t.acc in
  let mean = Float.Array.get acc mean_ in
  let delta = x -. mean in
  let mean = mean +. (delta /. float_of_int t.n) in
  Float.Array.set acc mean_ mean;
  Float.Array.set acc m2_ (Float.Array.get acc m2_ +. (delta *. (x -. mean)));
  if x < Float.Array.get acc min_ then Float.Array.set acc min_ x;
  if x > Float.Array.get acc max_ then Float.Array.set acc max_ x;
  Float.Array.set acc total_ (Float.Array.get acc total_ +. x);
  if t.len = Array.length t.samples then grow t;
  t.samples.(t.len) <- x;
  t.len <- t.len + 1

let count t = t.n
let mean t = if t.n = 0 then 0.0 else Float.Array.get t.acc mean_

let variance t =
  if t.n < 2 then 0.0 else Float.Array.get t.acc m2_ /. float_of_int (t.n - 1)

let stddev t = sqrt (variance t)
let min_value t = if t.n = 0 then 0.0 else Float.Array.get t.acc min_
let max_value t = if t.n = 0 then 0.0 else Float.Array.get t.acc max_
let total t = Float.Array.get t.acc total_

(* Percentiles by selection: each order statistic a percentile needs is
   found in place in expected linear time, in [Float.compare]'s total
   order, so the values are the ones a full sort would put at those ranks.
   [lt] is [Float.compare x y < 0] without the call: NaN sorts first. *)
let[@inline] lt (x : float) y = x < y || (x <> x && y = y)

let swap (a : float array) i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

(* Fallback once the partition depth runs out: an in-place heap sort of
   [a.(l..r)] keeps the worst case at O(n log n). *)
let rec sift (a : float array) l n i =
  let c = (2 * i) + 1 in
  if c < n then begin
    let c = if c + 1 < n && lt a.(l + c) a.(l + c + 1) then c + 1 else c in
    if lt a.(l + i) a.(l + c) then begin
      swap a (l + i) (l + c);
      sift a l n c
    end
  end

let heap_sort a l r =
  let n = r - l + 1 in
  for i = (n / 2) - 1 downto 0 do
    sift a l n i
  done;
  for m = n - 1 downto 1 do
    swap a l (l + m);
    sift a l m 0
  done

(* The pivot is the median of three samples at pseudo-random positions,
   drawn from an LCG stepped once per sample. Fixed positions (first,
   middle, last) line up with structured input: reversed or organ-pipe
   samples, or the partitions a previous call left, would run the depth
   out. The values found do not depend on the draws, only the time. *)
let[@inline] next s = (s * 0x2545F4914F6CDD1D) + 0x14057B7EF767814F
let[@inline] pick s n = (s lsr 30) mod n

(* Quickselect with Hoare partitioning (scans stop on equal keys, so
   all-equal input splits in half). Leaves the rank-[k] value at [a.(k)]
   with no greater value left of it and no smaller value right of it. *)
let rec select (a : float array) l r k depth seed =
  if r <= l + 1 then begin
    if r = l + 1 && lt a.(r) a.(l) then swap a l r
  end
  else if depth = 0 then heap_sort a l r
  else begin
    let n = r - l + 1 in
    let s1 = next seed in
    let s2 = next s1 in
    let s3 = next s2 in
    swap a l (l + pick s1 n);
    swap a (l + 1) (l + pick s2 n);
    swap a r (l + pick s3 n);
    (* Order a.(l+1) <= a.(l) <= a.(r): a.(l) is the pivot, the other two
       are sentinels for the scans. *)
    if lt a.(r) a.(l + 1) then swap a (l + 1) r;
    if lt a.(r) a.(l) then swap a l r;
    if lt a.(l) a.(l + 1) then swap a l (l + 1);
    let pivot = a.(l) in
    let i = ref (l + 1) and j = ref r in
    let crossed = ref false in
    while not !crossed do
      incr i;
      while lt a.(!i) pivot do
        incr i
      done;
      decr j;
      while lt pivot a.(!j) do
        decr j
      done;
      if !j < !i then crossed := true else swap a !i !j
    done;
    a.(l) <- a.(!j);
    a.(!j) <- pivot;
    if k < !j then select a l (!j - 1) k (depth - 1) s3
    else if k > !j then select a (!j + 1) r k (depth - 1) s3
  end

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  if t.len = 0 then 0.0
  else begin
    let a = t.samples in
    let rank = p /. 100.0 *. float_of_int (t.len - 1) in
    let lo = int_of_float (Float.of_int (int_of_float rank)) in
    let rec depth n d = if n <= 1 then d else depth (n / 2) (d + 2) in
    select a 0 (t.len - 1) lo (depth t.len 0) 0;
    (* Right of [lo] nothing is smaller, so the next rank is its minimum. *)
    let hi = ref (min (t.len - 1) (lo + 1)) in
    for i = !hi + 1 to t.len - 1 do
      if lt a.(i) a.(!hi) then hi := i
    done;
    let frac = rank -. float_of_int lo in
    (a.(lo) *. (1.0 -. frac)) +. (a.(!hi) *. frac)
  end

let median t = percentile t 50.0

let merge a b =
  let t = create () in
  for i = 0 to a.len - 1 do
    add t a.samples.(i)
  done;
  for i = 0 to b.len - 1 do
    add t b.samples.(i)
  done;
  t

let mean_of l =
  match l with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let stddev_of l =
  match l with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean_of l in
      let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 l in
      sqrt (ss /. float_of_int (List.length l - 1))
