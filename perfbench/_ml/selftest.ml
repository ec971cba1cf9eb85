(* The benchmark's own tests: python3 perfbench/run.py --selftest *)

open Bamboo_types
module Stats = Bamboo_util.Stats

let failures = ref 0

let check name cond =
  if cond then Printf.printf "ok   %s\n" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let samples n = Pb_stats.of_list (List.init n (fun i -> float_of_int (i + 1)))

let test_percentile_rule () =
  (* p99 needs 10 samples beyond its rank: 1000 samples, not 999. *)
  check "p99 reportable at n=1000" (Pb_stats.reportable ~n:1000 99.0);
  check "p99 refused at n=999" (not (Pb_stats.reportable ~n:999 99.0));
  check "p50 reportable at n=20" (Pb_stats.reportable ~n:20 50.0);
  check "p50 refused at n=19" (not (Pb_stats.reportable ~n:19 50.0));
  check "no percentile of nothing" (not (Pb_stats.reportable ~n:0 50.0));
  check "percentile errors when unsupported"
    (Result.is_error (Pb_stats.percentile (samples 999) 99.0));
  check "p99 of 1..1000 is 990.01"
    (match Pb_stats.percentile (samples 1000) 99.0 with
    | Ok v -> Float.abs (v -. 990.01) < 1e-6
    | Error _ -> false);
  check "10 samples lie beyond the p99 of 1000"
    (match Pb_stats.percentile (samples 1000) 99.0 with
    | Ok v -> List.length (List.filter (fun i -> float_of_int i > v) (List.init 1000 succ)) = 10
    | Error _ -> false)

let tx i = Tx.make ~client:1 ~seq:i ~payload_len:0

(* A generator stalled for 50 ms submits three overdue txs at once; their
   latency must run from their due times, not from the late submission. *)
let test_due_time_latency () =
  let plan = { Pb_openloop.due = [| 0.010; 0.011; 0.012 |]; target = [| 0; 1; 0 |] } in
  let obs = Pb_openloop.observer ~replicas:2 ~limit:1.0 in
  let stats = Pb_openloop.gen_stats () in
  (* The clock reads 0 once (nothing due yet, the generator sleeps), then
     the generator stalls until 50 ms. *)
  let ticks = ref [ 0.0 ] in
  let clock () =
    match !ticks with
    | t :: rest ->
        ticks := rest;
        t
    | [] -> 0.050
  in
  let submitted = ref [] in
  Pb_openloop.drive ~clock ~sleep:(fun _ -> ()) ~t0:0.0 ~plan ~make:tx
    ~submit:(fun ~replica txs ->
      submitted := (replica, List.length txs) :: !submitted;
      List.length txs)
    ~obs ~stats;
  check "one submit per target replica" (List.sort compare !submitted = [ (0, 2); (1, 1) ]);
  let lateness = stats.Pb_openloop.lateness in
  check "lateness measured against due times"
    (Stats.count lateness = 3
    && close (Stats.min_value lateness) 0.038
    && close (Stats.max_value lateness) 0.040);
  Pb_openloop.poll obs ~now:0.052 ~committed:(fun _ -> true);
  let lat = obs.Pb_openloop.latency in
  check "latency runs from due time through the stall"
    (Stats.count lat = 3
    && close (Stats.min_value lat) 0.040
    && close (Stats.median lat) 0.041
    && close (Stats.max_value lat) 0.042);
  check "all three committed within the limit" (obs.Pb_openloop.ok = 3 && Pb_openloop.failed obs = 0)

(* The first tx is rejected at submission, the second admitted and
   committed: the rejected one fails at once and does not hold the second
   up at the head of their replica's queue. *)
let test_rejected_not_observed () =
  let plan = { Pb_openloop.due = [| 0.010; 0.020 |]; target = [| 0; 0 |] } in
  let obs = Pb_openloop.observer ~replicas:1 ~limit:1.0 in
  let stats = Pb_openloop.gen_stats () in
  let ticks = ref [ 0.010; 0.010; 0.010; 0.020 ] in
  let clock () =
    match !ticks with
    | t :: rest ->
        ticks := rest;
        t
    | [] -> 0.020
  in
  let calls = ref 0 in
  Pb_openloop.drive ~clock ~sleep:(fun _ -> ()) ~t0:0.0 ~plan ~make:tx
    ~submit:(fun ~replica:_ txs ->
      incr calls;
      if !calls = 1 then 0 else List.length txs)
    ~obs ~stats;
  check "two submissions, one rejected" (!calls = 2 && stats.Pb_openloop.rejected = 1);
  check "only the admitted tx is observed" (Pb_openloop.outstanding obs = 1);
  Pb_openloop.poll obs ~now:0.025 ~committed:(fun id -> id.Tx.seq = 1);
  let lat = obs.Pb_openloop.latency in
  check "the committed tx behind a rejected one is seen at once"
    (obs.Pb_openloop.ok = 1 && Stats.count lat = 1 && close (Stats.max_value lat) 0.005);
  check "the rejected tx counts as failed"
    (Pb_openloop.failed_total obs stats = 1)

let test_never_committed () =
  let obs = Pb_openloop.observer ~replicas:1 ~limit:1.0 in
  Pb_openloop.push obs ~replica:0 (tx 1).Tx.id ~due_at:0.0;
  Pb_openloop.push obs ~replica:0 (tx 2).Tx.id ~due_at:0.5;
  let committed id = id.Tx.seq = 2 in
  Pb_openloop.poll obs ~now:0.5 ~committed;
  check "head of line waits while within the limit"
    (Pb_openloop.outstanding obs = 2 && Pb_openloop.failed obs = 0);
  Pb_openloop.poll obs ~now:1.2 ~committed;
  check "never-committed tx fails once over the limit" (obs.Pb_openloop.lost = 1);
  check "the tx behind it is still observed" (obs.Pb_openloop.ok = 1);
  Pb_openloop.push obs ~replica:0 (tx 3).Tx.id ~due_at:1.3;
  Pb_openloop.finish obs;
  check "tx outstanding at the end counts as failed"
    (obs.Pb_openloop.lost = 2 && Pb_openloop.failed obs = 2);
  let late = Pb_openloop.observer ~replicas:1 ~limit:1.0 in
  Pb_openloop.push late ~replica:0 (tx 4).Tx.id ~due_at:0.0;
  Pb_openloop.poll late ~now:1.5 ~committed:(fun _ -> true);
  check "commit after the limit is failed but still a latency sample"
    (late.Pb_openloop.late = 1 && Stats.count late.Pb_openloop.latency = 1)

let test_fingerprint_gate () =
  let f = { Pb_gate.txs = 1000; views = 50; events = 348_000; p50_ms = 12.5 } in
  let key = Pb_gate.fingerprint_key f in
  let table = [ (42, key) ] in
  check "matching fingerprint passes"
    (Pb_gate.check ~what:"fp" ~table ~cfg_seed:42 key = Ok ());
  check "planted fingerprint mismatch fails the gate"
    (Result.is_error
       (Pb_gate.check ~what:"fp" ~table ~cfg_seed:42
          (Pb_gate.fingerprint_key { f with events = f.events + 1 })));
  check "unrecorded seed fails the gate"
    (Result.is_error (Pb_gate.check ~what:"fp" ~table ~cfg_seed:43 key));
  check "every run seed maps to a recorded seed"
    (List.for_all
       (fun s ->
         let c = Pb_gate.config_seed s in
         c >= 42 && c < 42 + Pb_gate.recorded_seeds)
       [ -9; -1; 0; 1; 7; 8; 1_000_003 ]);
  check "the recorded tables cover every mapped seed"
    (List.for_all
       (fun c -> List.mem_assoc c Pb_expected.table2 && List.mem_assoc c Pb_expected.n64)
       (List.init Pb_gate.recorded_seeds (fun i -> 42 + i)))

(* The benchmark runs the Table II sweep through its own copy of the
   rates; its rows for seed 42 must be the library's. *)
let test_table2_matches_library () =
  let ctx = Pb_sim.prepare Pb_sim.Table2 ~seed:0 in
  let library =
    Bamboo.Experiments.table2_rows ~base:ctx.Pb_sim.config Bamboo.Experiments.Quick
  in
  check "seed-42 Table II rows equal Experiments.table2_rows"
    (ctx.Pb_sim.cfg_seed = 42 && Pb_sim.table2_rows (Pb_sim.untraced_unit ctx) = library)

(* The thread-hop reference runs, times whole views and shuts down: a
   second run would hang or fail if the first left threads or sockets. *)
let test_hop_reference () =
  let a = Pb_hops.view_s ~seconds:0.05 and b = Pb_hops.view_s ~seconds:0.05 in
  check "hop reference reports a view time twice"
    (List.for_all (fun v -> Float.is_finite v && v > 0.0 && v < 0.05) [ a; b ])

let () =
  test_percentile_rule ();
  test_due_time_latency ();
  test_rejected_not_observed ();
  test_never_committed ();
  test_fingerprint_gate ();
  test_table2_matches_library ();
  test_hop_reference ();
  if !failures > 0 then begin
    Printf.printf "%d failed\n" !failures;
    exit 1
  end
  else print_endline "all passed"
