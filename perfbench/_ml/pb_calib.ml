(* Machine-speed reference. Machines shared with other tenants change
   speed by tens of percent over seconds, which would swamp any change a
   patch makes. Each timed unit is therefore bracketed by a fixed kernel
   written here, independent of the repository's code, whose mix
   (binary-heap push/pop of event times, hash-table probes) resembles the
   simulator's inner loop. Dividing the run's median unit wall time by the
   kernel's median time over the same run cancels the machine's speed of
   the moment; multiplying by [reference_s] turns the ratio back into
   seconds on a machine where the kernel takes [reference_s]. *)

let reference_s = 0.02

(* One run of the kernel: a binary heap of event times with their ids
   (the simulator's queue discipline) feeding an open-addressing table,
   all in preallocated arrays so its speed does not depend on the heap
   state the workload leaves behind. Returns a checksum so nothing is
   optimised away. *)
let kernel () =
  let cap = 4096 in
  let at = Array.make cap 0.0 and id = Array.make cap 0 in
  let size = ref 0 in
  let swap i j =
    let a = at.(i) and d = id.(i) in
    at.(i) <- at.(j);
    id.(i) <- id.(j);
    at.(j) <- a;
    id.(j) <- d
  in
  let push a d =
    at.(!size) <- a;
    id.(!size) <- d;
    let i = ref !size in
    incr size;
    while !i > 0 && at.((!i - 1) / 2) > at.(!i) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let a = at.(0) and d = id.(0) in
    decr size;
    at.(0) <- at.(!size);
    id.(0) <- id.(!size);
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < !size && at.(l) < at.(!m) then m := l;
      if r < !size && at.(r) < at.(!m) then m := r;
      if !m = !i then continue := false
      else begin
        swap !i !m;
        i := !m
      end
    done;
    (a, d)
  in
  let slots = 16384 in
  let keys = Array.make slots (-1) and vals = Array.make slots 0 in
  let rec put k v h =
    if keys.(h) = k || keys.(h) < 0 then begin
      keys.(h) <- k;
      vals.(h) <- v
    end
    else put k v ((h + 1) land (slots - 1))
  in
  let x = ref 12345 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    !x
  in
  for i = 1 to 2048 do
    push (float_of_int (next () land 0xffff)) i
  done;
  let sum = ref 0 in
  for _ = 1 to 150_000 do
    let a, d = pop () in
    let k = d land 8191 in
    put k (d + !sum) ((k * 40503) land (slots - 1));
    sum := !sum + vals.((next () * 40503) land (slots - 1));
    push (a +. float_of_int (next () land 0xff)) (d + 1)
  done;
  !sum

(* Seconds of one kernel run now. *)
let kernel_s () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()) : int);
  Unix.gettimeofday () -. t0

(* A run's kernel samples, taken around every timed unit. *)
let samples = ref []

let sample () =
  for _ = 1 to 3 do
    samples := kernel_s () :: !samples
  done

(* Runs [f] between kernel samples; returns its result and wall seconds. *)
let timed f =
  sample ();
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let wall = Unix.gettimeofday () -. t0 in
  sample ();
  (r, wall)

(* [normalise wall] scales a wall time measured during this run to a
   machine where the kernel takes [reference_s]: the ratio of medians over
   the whole run, so one slow moment moves neither much. *)
let normalise wall = wall *. reference_s /. Pb_stats.median !samples
