module Rng = Bamboo_util.Rng

let test_determinism () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int32) "same stream" (Rng.bits32 a) (Rng.bits32 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits32 a = Rng.bits32 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_int_bounds () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of bounds"
  done

let test_int_uniformity () =
  let rng = Rng.create ~seed:9 in
  let counts = Array.make 8 0 in
  let trials = 80_000 in
  for _ = 1 to trials do
    let v = Rng.int rng 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = trials / 8 in
      if abs (c - expected) > expected / 10 then
        Alcotest.failf "bucket %d skewed: %d vs %d" i c expected)
    counts

let test_float_range () =
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.fail "float out of range"
  done

let test_int64_bounds () =
  let rng = Rng.create ~seed:13 in
  for _ = 1 to 1_000 do
    let v = Rng.int64 rng 1_000_000_000_000L in
    if v < 0L || v >= 1_000_000_000_000L then Alcotest.fail "int64 out of bounds"
  done

let test_split_independence () =
  let parent = Rng.create ~seed:21 in
  let a = Rng.split parent in
  let b = Rng.split parent in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits32 a = Rng.bits32 b then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 4)

let test_copy () =
  let a = Rng.create ~seed:31 in
  ignore (Rng.bits32 a);
  let b = Rng.copy a in
  for _ = 1 to 50 do
    Alcotest.(check int32) "copy tracks original" (Rng.bits32 a) (Rng.bits32 b)
  done

let test_shuffle_permutation () =
  let rng = Rng.create ~seed:41 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_invalid_bound () =
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_bound_above_2_32 () =
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "bound 2^33"
    (Invalid_argument "Rng.int: bound above 2^32") (fun () ->
      ignore (Rng.int rng (1 lsl 33)));
  Alcotest.check_raises "bound 2^32 + 1"
    (Invalid_argument "Rng.int: bound above 2^32") (fun () ->
      ignore (Rng.int rng ((1 lsl 32) + 1)));
  (* 2^32 itself is served: every 32-bit draw is accepted as is. *)
  let r = Rng.create ~seed:3 in
  Alcotest.(check (list int)) "bound 2^32"
    [ 2750463884; 3707144041; 1695622604 ]
    (List.init 3 (fun _ -> Rng.int r (1 lsl 32)))

(* Golden streams: the first outputs for fixed seeds, recorded from the
   reference PCG-XSH-RR implementation. Any rewrite of the generator must
   reproduce them bit for bit, or every seeded experiment changes. *)
let bits r n = List.init n (fun _ -> Rng.bits32 r)

let test_golden_bits32 () =
  Alcotest.(check (list int32)) "seed 1"
    [ -261890997l; -1323032687l; -129830206l; -1503957611l; 1308708225l;
      -1021577409l; 554689181l; -2092832462l ]
    (bits (Rng.create ~seed:1) 8);
  Alcotest.(check (list int32)) "seed 42"
    [ 1898997482l; 1014631766l; -198958742l; 633901381l; 1139273534l;
      -1865419252l; 1379009937l; 1407171768l ]
    (bits (Rng.create ~seed:42) 8)

let test_golden_draws () =
  let r = Rng.create ~seed:7 in
  Alcotest.(check (list int)) "int 1000"
    [ 593; 489; 104; 102; 328; 515; 361; 12 ]
    (List.init 8 (fun _ -> Rng.int r 1000));
  let floats = List.init 6 (fun _ -> Rng.float r 1.0) in
  List.iter2
    (fun want got ->
      if not (Float.equal want got) then Alcotest.failf "float: %h, want %h" got want)
    [ 0x1.e41a9762p-1; 0x1.fb1afb44p-1; 0x1.0762e54p-1; 0x1.229364cp-6;
      0x1.1f38de22p-1; 0x1.197e502ap-1 ]
    floats

let test_golden_split () =
  let parent = Rng.create ~seed:42 in
  let child = Rng.split parent in
  Alcotest.(check (list int32)) "child"
    [ 1402637571l; 1854292248l; -1585000191l; -310633109l; -1937484298l;
      -1027781263l ]
    (bits child 6);
  (* The split consumed the parent's first two outputs. *)
  Alcotest.(check (list int32)) "parent after split"
    [ -198958742l; 633901381l; 1139273534l ]
    (bits parent 3)

let test_no_alloc () =
  let rng = Rng.create ~seed:5 in
  Helpers.check_no_alloc "Rng.int" (fun _ -> ignore (Sys.opaque_identity (Rng.int rng 1000)));
  Helpers.check_no_alloc "Rng.bits" (fun _ -> ignore (Sys.opaque_identity (Rng.bits rng)));
  (* A float result crosses a call boxed, 2 words, wherever the call is
     not inlined (as in this test build); the state update is free. *)
  let words =
    Helpers.alloc_delta (fun () ->
        for _ = 1 to 100_000 do
          if Rng.float rng 2.0 >= 2.0 then Alcotest.fail "out of range"
        done)
  in
  if words > 200_000.0 +. 1000.0 then
    Alcotest.failf "Rng.float allocated %.0f minor words in 100000 calls" words

let test_bits_is_float_numerator () =
  let a = Rng.create ~seed:77 and b = Rng.create ~seed:77 in
  for _ = 1 to 1000 do
    let x = Rng.float a 3.5 in
    let y = float_of_int (Rng.bits b) /. 4294967296.0 *. 3.5 in
    if not (Float.equal x y) then Alcotest.failf "%h <> %h" x y
  done

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int uniformity" `Quick test_int_uniformity;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "int64 bounds" `Quick test_int64_bounds;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "copy" `Quick test_copy;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "invalid bound" `Quick test_invalid_bound;
    Alcotest.test_case "bound above 2^32" `Quick test_bound_above_2_32;
    Alcotest.test_case "golden bits32" `Quick test_golden_bits32;
    Alcotest.test_case "golden int and float" `Quick test_golden_draws;
    Alcotest.test_case "golden split" `Quick test_golden_split;
    Alcotest.test_case "int and bits allocate nothing, float its box" `Quick
      test_no_alloc;
    Alcotest.test_case "float is bits over 2^32" `Quick test_bits_is_float_numerator;
  ]
