module Stats = Bamboo_util.Stats

let feed xs =
  let t = Stats.create () in
  List.iter (Stats.add t) xs;
  t

let test_empty () =
  let t = Stats.create () in
  Alcotest.(check int) "count" 0 (Stats.count t);
  Alcotest.(check (float 0.0)) "mean" 0.0 (Stats.mean t);
  Alcotest.(check (float 0.0)) "stddev" 0.0 (Stats.stddev t);
  Alcotest.(check (float 0.0)) "percentile" 0.0 (Stats.percentile t 50.0)

let test_basic_moments () =
  let t = feed [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean t);
  Alcotest.(check (float 1e-9)) "total" 40.0 (Stats.total t);
  (* Sample variance with n-1 denominator: 32/7. *)
  Alcotest.(check (float 1e-9)) "variance" (32.0 /. 7.0) (Stats.variance t);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.min_value t);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.max_value t)

let test_percentiles () =
  let t = feed (List.init 101 float_of_int) in
  Alcotest.(check (float 1e-9)) "p0" 0.0 (Stats.percentile t 0.0);
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.percentile t 50.0);
  Alcotest.(check (float 1e-9)) "p95" 95.0 (Stats.percentile t 95.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile t 100.0);
  Alcotest.(check (float 1e-9)) "median" 50.0 (Stats.median t)

let test_percentile_interpolation () =
  let t = feed [ 10.0; 20.0 ] in
  Alcotest.(check (float 1e-9)) "p50 interpolates" 15.0 (Stats.percentile t 50.0);
  Alcotest.(check (float 1e-9)) "p25" 12.5 (Stats.percentile t 25.0)

let test_percentile_after_more_adds () =
  (* A sample added after a percentile query must count in the next one. *)
  let t = feed [ 3.0; 1.0 ] in
  ignore (Stats.median t);
  Stats.add t 2.0;
  Alcotest.(check (float 1e-9)) "median" 2.0 (Stats.median t)

let test_merge () =
  let a = feed [ 1.0; 2.0 ] and b = feed [ 3.0; 4.0 ] in
  let m = Stats.merge a b in
  Alcotest.(check int) "count" 4 (Stats.count m);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean m)

let test_single_sample () =
  let t = feed [ 42.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 42.0 (Stats.mean t);
  Alcotest.(check (float 1e-9)) "variance" 0.0 (Stats.variance t);
  Alcotest.(check (float 1e-9)) "median" 42.0 (Stats.median t)

let test_list_helpers () =
  Alcotest.(check (float 1e-9)) "mean_of" 2.0 (Stats.mean_of [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "mean_of empty" 0.0 (Stats.mean_of []);
  Alcotest.(check (float 1e-9)) "stddev_of" 1.0 (Stats.stddev_of [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "stddev_of single" 0.0 (Stats.stddev_of [ 5.0 ])

let test_invalid_percentile () =
  let t = feed [ 1.0 ] in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile t 101.0))

let welford_matches_naive =
  let open QCheck in
  let gen = Gen.list_size (Gen.int_range 2 50) (Gen.float_range (-100.) 100.) in
  Test.make ~name:"streaming variance matches naive computation" ~count:300
    (make ~print:(fun xs -> string_of_int (List.length xs)) gen)
    (fun xs ->
      let t = feed xs in
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0.0 xs /. n in
      let naive =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs
        /. (n -. 1.0)
      in
      Float.abs (Stats.variance t -. naive) < 1e-6 *. (1.0 +. naive))

(* The accumulator against a plain Welford fold over the same samples, in
   the same order: every summary must be the same float, bit for bit. *)
let welford_matches_fold =
  let open QCheck in
  let x =
    Gen.frequency
      [
        (8, Gen.float_range (-1e3) 1e3);
        (2, Gen.map (fun e -> Float.ldexp 1.0 e) (Gen.int_range (-60) 60));
        (1, Gen.oneofl [ 0.0; -0.0; 1e300; -1e300; Float.nan; Float.infinity ]);
      ]
  in
  let gen = Gen.list_size (Gen.int_range 0 200) x in
  Test.make ~name:"summaries equal a reference Welford fold bit for bit" ~count:300
    (make ~print:(fun xs -> String.concat "; " (List.map (Printf.sprintf "%h") xs)) gen)
    (fun xs ->
      let t = feed xs in
      let n, mean, m2, mn, mx, total =
        List.fold_left
          (fun (n, mean, m2, mn, mx, total) x ->
            let n = n + 1 in
            let delta = x -. mean in
            let mean = mean +. (delta /. float_of_int n) in
            let m2 = m2 +. (delta *. (x -. mean)) in
            ( n,
              mean,
              m2,
              (if x < mn then x else mn),
              (if x > mx then x else mx),
              total +. x ))
          (0, 0.0, 0.0, infinity, neg_infinity, 0.0)
          xs
      in
      let empty = n = 0 in
      Stats.count t = n
      && Float.equal (Stats.mean t) (if empty then 0.0 else mean)
      && Float.equal (Stats.variance t)
           (if n < 2 then 0.0 else m2 /. float_of_int (n - 1))
      && Float.equal (Stats.min_value t) (if empty then 0.0 else mn)
      && Float.equal (Stats.max_value t) (if empty then 0.0 else mx)
      && Float.equal (Stats.total t) total)

let percentile_bounds =
  let open QCheck in
  let gen =
    Gen.pair
      (Gen.list_size (Gen.int_range 1 50) (Gen.float_range (-1000.) 1000.))
      (Gen.float_range 0.0 100.0)
  in
  Test.make ~name:"percentiles lie within [min, max]" ~count:300
    (make ~print:(fun (xs, p) -> Printf.sprintf "%d samples, p=%g" (List.length xs) p) gen)
    (fun (xs, p) ->
      let t = feed xs in
      let v = Stats.percentile t p in
      v >= Stats.min_value t -. 1e-9 && v <= Stats.max_value t +. 1e-9)

(* The reference: a copy sorted with [Float.compare], then interpolated
   between the two closest ranks. *)
let reference_percentile xs p =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float rank in
  let hi = min (n - 1) (lo + 1) in
  let frac = rank -. float_of_int lo in
  (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)

type shape = Shuffled | Sorted | Reversed | All_equal

let shape_name = function
  | Shuffled -> "shuffled"
  | Sorted -> "sorted"
  | Reversed -> "reversed"
  | All_equal -> "all equal"

let percentile_matches_sort =
  let open QCheck in
  let gen =
    let open Gen in
    let* shape = oneofl [ Shuffled; Sorted; Reversed; All_equal ] in
    let* n = oneof [ int_range 1 2; int_range 1 50; int_range 50 3000 ] in
    (* Few distinct values, so most samples have duplicates. *)
    let* distinct = int_range 1 20 in
    let* raw = list_repeat n (map float_of_int (int_range 0 (distinct - 1))) in
    let* scale = oneofl [ 1.0; 0.37; -2.5 ] in
    let raw = List.map (fun x -> x *. scale) raw in
    let xs =
      match shape with
      | Shuffled -> raw
      | Sorted -> List.sort Float.compare raw
      | Reversed -> List.rev (List.sort Float.compare raw)
      | All_equal -> List.map (fun _ -> 1.5) raw
    in
    let* random_ps = list_size (int_range 1 5) (float_range 0.0 100.0) in
    (* Query order is random too: each call sees the previous call's
       partially reordered samples. *)
    let* ps = shuffle_l ([ 0.0; 50.0; 95.0; 99.0; 100.0 ] @ random_ps) in
    return (shape, xs, ps)
  in
  Test.make ~name:"percentiles equal the sorted reference" ~count:300
    (make
       ~print:(fun (shape, xs, ps) ->
         Printf.sprintf "%s, %d samples, p = %s" (shape_name shape)
           (List.length xs)
           (String.concat ", " (List.map string_of_float ps)))
       gen)
    (fun (_, xs, ps) ->
      let t = feed xs in
      List.for_all
        (fun p ->
          Int64.equal
            (Int64.bits_of_float (Stats.percentile t p))
            (Int64.bits_of_float (reference_percentile xs p)))
        ps)

let test_add_no_alloc () =
  let t = Stats.create () in
  (* Grow the sample store first: a pin of the steady state. *)
  for i = 0 to 199_999 do
    Stats.add t (float_of_int i)
  done;
  (* A boxed sample, as a caller passes one; an unboxed local would be
     boxed at the call in the test build. *)
  let x = 0.5 in
  Helpers.check_no_alloc "Stats.add" (fun _ -> Stats.add t x)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "moments" `Quick test_basic_moments;
    Alcotest.test_case "percentiles" `Quick test_percentiles;
    Alcotest.test_case "interpolation" `Quick test_percentile_interpolation;
    Alcotest.test_case "re-sort after add" `Quick test_percentile_after_more_adds;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "single sample" `Quick test_single_sample;
    Alcotest.test_case "list helpers" `Quick test_list_helpers;
    Alcotest.test_case "invalid percentile" `Quick test_invalid_percentile;
    Alcotest.test_case "add allocates nothing" `Quick test_add_no_alloc;
    QCheck_alcotest.to_alcotest welford_matches_naive;
    QCheck_alcotest.to_alcotest welford_matches_fold;
    QCheck_alcotest.to_alcotest percentile_bounds;
    QCheck_alcotest.to_alcotest percentile_matches_sort;
  ]
