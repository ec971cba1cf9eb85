module Pool = Bamboo_util.Pool

let test_matches_list_map () =
  let xs = List.init 250 (fun i -> i) in
  let f x = (x * 7) mod 13 in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d equals List.map" jobs)
        (List.map f xs)
        (Pool.map ~jobs f xs))
    [ 1; 2; 4; 8 ]

let test_order_preserved_under_skew () =
  (* Make late submissions finish first: results must still come back in
     submission order. *)
  let xs = List.init 40 (fun i -> i) in
  let f x =
    if x < 4 then begin
      (* Busy-work so the first items are the slowest. *)
      let acc = ref 0 in
      for i = 0 to 2_000_000 do
        acc := !acc + (i mod 7)
      done;
      ignore !acc
    end;
    x * 2
  in
  Alcotest.(check (list int))
    "submission order" (List.map (fun x -> x * 2) xs)
    (Pool.map ~jobs:4 f xs)

let test_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 9 ]
    (Pool.map ~jobs:4 (fun x -> x + 2) [ 7 ])

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      match
        Pool.map ~jobs (fun x -> if x = 5 then raise (Boom x) else x)
          (List.init 20 Fun.id)
      with
      | _ -> Alcotest.fail "expected exception"
      | exception Boom 5 -> ())
    [ 1; 4 ]

let test_invalid_jobs () =
  Alcotest.check_raises "jobs=0"
    (Invalid_argument "Pool.map: jobs must be >= 1") (fun () ->
      ignore (Pool.map ~jobs:0 (fun x -> x) [ 1 ]))

let test_recommended_positive () =
  Alcotest.(check bool) ">= 1" true (Pool.recommended_jobs () >= 1)

(* Parallel workers run with an 8 MB minor heap or more; the calling
   domain's own size is back once [map] returns, also after a failure. *)
let test_worker_minor_heap () =
  let size () = (Gc.get ()).Gc.minor_heap_size in
  let before = size () in
  let sizes = Pool.map ~jobs:2 (fun _ -> size ()) (List.init 8 Fun.id) in
  List.iter
    (fun s -> Alcotest.(check bool) "worker minor heap" true (s >= 1 lsl 20))
    sizes;
  Alcotest.(check int) "caller restored" before (size ());
  (match Pool.map ~jobs:2 (fun x -> if x = 3 then raise (Boom x)) (List.init 8 Fun.id) with
  | _ -> Alcotest.fail "expected exception"
  | exception Boom 3 -> ());
  Alcotest.(check int) "caller restored after failure" before (size ())

let suite =
  [
    Alcotest.test_case "matches List.map at any job count" `Quick
      test_matches_list_map;
    Alcotest.test_case "order preserved under skew" `Quick
      test_order_preserved_under_skew;
    Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
    Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
    Alcotest.test_case "invalid jobs rejected" `Quick test_invalid_jobs;
    Alcotest.test_case "recommended_jobs positive" `Quick
      test_recommended_positive;
    Alcotest.test_case "worker minor heap" `Quick test_worker_minor_heap;
  ]
