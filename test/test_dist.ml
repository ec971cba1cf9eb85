module Rng = Bamboo_util.Rng
module Dist = Bamboo_util.Dist

let sample_stats n f =
  let rec loop i sum sumsq =
    if i = n then (sum /. float_of_int n, sumsq)
    else
      let x = f () in
      loop (i + 1) (sum +. x) (sumsq +. (x *. x))
  in
  let mean, sumsq = loop 0 0.0 0.0 in
  let var = (sumsq /. float_of_int n) -. (mean *. mean) in
  (mean, sqrt var)

let test_normal_moments () =
  let rng = Rng.create ~seed:5 in
  let mean, std =
    sample_stats 50_000 (fun () -> Dist.normal rng ~mu:10.0 ~sigma:2.0)
  in
  Alcotest.(check bool) "mean" true (Float.abs (mean -. 10.0) < 0.05);
  Alcotest.(check bool) "stddev" true (Float.abs (std -. 2.0) < 0.05)

let test_normal_pos () =
  let rng = Rng.create ~seed:6 in
  for _ = 1 to 10_000 do
    if Dist.normal_pos rng ~mu:0.001 ~sigma:0.01 < 0.0 then
      Alcotest.fail "negative sample"
  done

let test_exponential_mean () =
  let rng = Rng.create ~seed:7 in
  let mean, _ = sample_stats 50_000 (fun () -> Dist.exponential rng ~rate:4.0) in
  Alcotest.(check bool) "mean 1/rate" true (Float.abs (mean -. 0.25) < 0.01)

let test_poisson_moments () =
  let rng = Rng.create ~seed:8 in
  let mean, std =
    sample_stats 50_000 (fun () ->
        float_of_int (Dist.poisson rng ~mean:7.0))
  in
  Alcotest.(check bool) "mean" true (Float.abs (mean -. 7.0) < 0.1);
  Alcotest.(check bool) "var=mean" true (Float.abs (std -. sqrt 7.0) < 0.1)

let test_poisson_large_mean () =
  (* Above 60 the implementation switches to a normal approximation. *)
  let rng = Rng.create ~seed:9 in
  let mean, _ =
    sample_stats 20_000 (fun () -> float_of_int (Dist.poisson rng ~mean:200.0))
  in
  Alcotest.(check bool) "mean" true (Float.abs (mean -. 200.0) < 2.0)

let test_poisson_zero () =
  let rng = Rng.create ~seed:10 in
  Alcotest.(check int) "zero mean" 0 (Dist.poisson rng ~mean:0.0)

let test_normal_cdf_values () =
  let check x expected =
    let got = Dist.normal_cdf x in
    if Float.abs (got -. expected) > 1e-4 then
      Alcotest.failf "Phi(%g) = %g, expected %g" x got expected
  in
  check 0.0 0.5;
  check 1.0 0.841345;
  check (-1.0) 0.158655;
  check 1.959964 0.975;
  check (-2.575829) 0.005

let test_order_statistic_known () =
  (* For two standard normals, E[max] = 1/sqrt(pi) ~ 0.5642. *)
  let expected = 1.0 /. sqrt Float.pi in
  let numeric = Dist.order_statistic_mean_numeric ~n:2 ~k:2 ~mu:0.0 ~sigma:1.0 in
  Alcotest.(check bool) "numeric E[max of 2]" true
    (Float.abs (numeric -. expected) < 1e-3);
  let rng = Rng.create ~seed:11 in
  let mc =
    Dist.order_statistic_mean rng ~n:2 ~k:2 ~mu:0.0 ~sigma:1.0 ~trials:200_000
  in
  Alcotest.(check bool) "Monte Carlo E[max of 2]" true
    (Float.abs (mc -. expected) < 0.01)

let test_order_statistic_median () =
  (* The middle order statistic of an odd sample of symmetric variables has
     expectation mu. *)
  let v = Dist.order_statistic_mean_numeric ~n:7 ~k:4 ~mu:3.0 ~sigma:0.5 in
  Alcotest.(check bool) "median expectation" true (Float.abs (v -. 3.0) < 1e-3)

let test_order_statistic_mc_vs_numeric () =
  (* The paper's quorum case: 5th order statistic of 7 (n=8, quorum 6). *)
  let rng = Rng.create ~seed:12 in
  let mc =
    Dist.order_statistic_mean rng ~n:7 ~k:5 ~mu:1.0 ~sigma:0.2 ~trials:100_000
  in
  let numeric = Dist.order_statistic_mean_numeric ~n:7 ~k:5 ~mu:1.0 ~sigma:0.2 in
  Alcotest.(check bool) "agreement" true (Float.abs (mc -. numeric) < 0.005)

let test_order_statistic_monotone_in_k () =
  let v k = Dist.order_statistic_mean_numeric ~n:10 ~k ~mu:0.0 ~sigma:1.0 in
  let prev = ref neg_infinity in
  for k = 1 to 10 do
    let x = v k in
    if x <= !prev then Alcotest.fail "not increasing in k";
    prev := x
  done

let test_invalid_args () =
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "bad k"
    (Invalid_argument "Dist.order_statistic_mean: k out of range") (fun () ->
      ignore (Dist.order_statistic_mean rng ~n:3 ~k:4 ~mu:0.0 ~sigma:1.0 ~trials:10));
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Dist.exponential: rate must be positive") (fun () ->
      ignore (Dist.exponential rng ~rate:0.0))

let test_non_finite_args () =
  let rng = Rng.create ~seed:1 in
  let raises name msg f = Alcotest.check_raises name (Invalid_argument msg) f in
  List.iter
    (fun mean ->
      raises (Printf.sprintf "poisson mean %g" mean) "Dist.poisson: mean must be finite"
        (fun () -> ignore (Dist.poisson rng ~mean)))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  raises "negative mean" "Dist.poisson: mean must be non-negative" (fun () ->
      ignore (Dist.poisson rng ~mean:(-1.0)));
  List.iter
    (fun rate ->
      raises (Printf.sprintf "exponential rate %g" rate)
        "Dist.exponential: rate must be finite" (fun () ->
          ignore (Dist.exponential rng ~rate)))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* Golden draws, continuing seed 7's stream after 8 [Rng.int 1000] and 6
   [Rng.float 1.0] draws, recorded from the reference implementation. *)
let test_golden () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 8 do
    ignore (Rng.int r 1000)
  done;
  for _ = 1 to 6 do
    ignore (Rng.float r 1.0)
  done;
  let floats name want got =
    List.iter2
      (fun w g -> if not (Float.equal w g) then Alcotest.failf "%s: %h, want %h" name g w)
      want got
  in
  floats "normal_pos"
    [ 0x1.cc610dd95066ap-11; 0x1.0818468d2da2bp-11; 0x1.a1391f51ace11p-11;
      0x1.4c76ad10bd42ep-11; 0x0p+0; 0x1.f50fb89e682fep-10 ]
    (List.init 6 (fun _ -> Dist.normal_pos r ~mu:0.001 ~sigma:0.0005));
  Alcotest.(check (list int)) "poisson 2.5" [ 1; 3; 3; 0; 1; 1; 1; 3 ]
    (List.init 8 (fun _ -> Dist.poisson r ~mean:2.5));
  Alcotest.(check (list int)) "poisson 80" [ 90; 71; 81; 90; 90; 83; 86; 86 ]
    (List.init 8 (fun _ -> Dist.poisson r ~mean:80.0));
  floats "exponential"
    [ 0x1.7edbfeafa76cp-4; 0x1.38365a0c738d7p-3; 0x1.65cf06a22a809p-1;
      0x1.57cb071b18debp-3 ]
    (List.init 4 (fun _ -> Dist.exponential r ~rate:4.0))

let test_poisson_no_alloc () =
  let rng = Rng.create ~seed:9 in
  Helpers.check_no_alloc "Dist.poisson" (fun _ ->
      ignore (Sys.opaque_identity (Dist.poisson rng ~mean:40.0)))

let suite =
  [
    Alcotest.test_case "normal moments" `Quick test_normal_moments;
    Alcotest.test_case "normal_pos non-negative" `Quick test_normal_pos;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "poisson moments" `Quick test_poisson_moments;
    Alcotest.test_case "poisson large mean" `Quick test_poisson_large_mean;
    Alcotest.test_case "poisson zero" `Quick test_poisson_zero;
    Alcotest.test_case "normal cdf values" `Quick test_normal_cdf_values;
    Alcotest.test_case "order stat: known value" `Quick test_order_statistic_known;
    Alcotest.test_case "order stat: median" `Quick test_order_statistic_median;
    Alcotest.test_case "order stat: MC vs numeric" `Quick
      test_order_statistic_mc_vs_numeric;
    Alcotest.test_case "order stat: monotone in k" `Quick
      test_order_statistic_monotone_in_k;
    Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
    Alcotest.test_case "non-finite arguments" `Quick test_non_finite_args;
    Alcotest.test_case "golden draws" `Quick test_golden;
    Alcotest.test_case "poisson allocates nothing" `Quick test_poisson_no_alloc;
  ]
