(* The parallel experiment driver's determinism contract: the formatted
   rows of an experiment are identical at any job count, because every
   simulation cell is self-contained and Bamboo_util.Pool returns results
   in submission order. A reduced base configuration keeps the cells
   cheap; the rows compared are the final formatted strings, so any
   divergence — float rounding, ordering, dropped cells — fails loudly. *)

module E = Bamboo.Experiments
module Config = Bamboo.Config

let rows_at jobs f =
  E.set_jobs jobs;
  Fun.protect ~finally:(fun () -> E.set_jobs 1) f

let test_table2_rows_identical () =
  let base = { Config.default with runtime = 0.5; warmup = 0.1 } in
  let seq = rows_at 1 (fun () -> E.table2_rows ~base E.Quick) in
  let par = rows_at 4 (fun () -> E.table2_rows ~base E.Quick) in
  Alcotest.(check (list (list string))) "jobs=4 equals jobs=1" seq par

let test_fig8_panel_identical () =
  let base = { Config.default with runtime = 0.25; warmup = 0.05 } in
  let panel jobs =
    rows_at jobs (fun () -> E.fig8_panel_rows ~base ~n:4 ~bsize:100 E.Quick)
  in
  let seq = panel 1 and par = panel 4 in
  Alcotest.(check (list (pair string (list (list string)))))
    "jobs=4 equals jobs=1" seq par

let test_sweep_on_pool_matches_rates () =
  (* sweep pairs each requested rate with its own cell's summary, in
     order. *)
  let config = { Config.default with runtime = 0.3; warmup = 0.05 } in
  let rates = [ 10_000.0; 20_000.0; 30_000.0 ] in
  let pairs = rows_at 3 (fun () -> E.sweep ~config ~rates) in
  Alcotest.(check (list (float 0.0))) "rates in order" rates (List.map fst pairs);
  List.iter
    (fun (rate, (s : Bamboo.Metrics.summary)) ->
      Alcotest.(check bool)
        (Printf.sprintf "throughput at %.0f positive" rate)
        true
        (s.Bamboo.Metrics.throughput > 0.0))
    pairs

let test_set_jobs_validates () =
  Alcotest.check_raises "jobs=0"
    (Invalid_argument "Experiments.set_jobs: jobs must be >= 1") (fun () ->
      E.set_jobs 0);
  E.set_jobs 2;
  Alcotest.(check int) "accessor" 2 (E.jobs ());
  E.set_jobs 1

let suite =
  [
    Alcotest.test_case "table2 rows identical across job counts" `Quick
      test_table2_rows_identical;
    Alcotest.test_case "fig8 panel identical across job counts" `Quick
      test_fig8_panel_identical;
    Alcotest.test_case "sweep keeps rate order on the pool" `Quick
      test_sweep_on_pool_matches_rates;
    Alcotest.test_case "set_jobs validates" `Quick test_set_jobs_validates;
  ]
