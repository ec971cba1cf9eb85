module Sim = Bamboo_sim.Sim
module Config = Bamboo.Config
module Monitor = Bamboo_check.Monitor
module Scenario = Bamboo_check.Scenario
module Fuzz = Bamboo_check.Fuzz
module Schedule = Bamboo_faults.Schedule
module Json = Bamboo_util.Json
module Scheduler = Bamboo_explore.Scheduler
module Strategy = Bamboo_explore.Strategy

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* --- sim controller semantics --- *)

(* A message delivery as a typed event: the controller reads its identity
   from the pending event through the handler's classifier. *)
type Sim.event +=
  | Msg of { src : int; dst : int; note : string; k : unit -> unit }

let typed_sim () =
  let sim = Sim.create () in
  Sim.set_handler sim
    ~fire:(function Msg m -> m.k () | _ -> ())
    ~delivery:(function
      | Msg m -> Some (m.src, m.dst, m.note) | _ -> None);
  sim

let deliver sim ~delay ~src ~dst ~note k =
  Sim.post sim ~delay (Msg { src; dst; note; k })

(* A choose-0 controller must reproduce the uncontrolled delivery order:
   candidates are sorted by (timestamp, sequence), so index 0 is exactly
   what the plain heap would fire next. *)
let test_neutral_controller_order () =
  let order ctl =
    let sim = typed_sim () in
    let log = ref [] in
    Sim.set_controller sim ctl;
    List.iteri
      (fun i d ->
        deliver sim ~delay:d ~src:0 ~dst:(i mod 3)
          ~note:(Printf.sprintf "m%d" i) (fun () -> log := i :: !log))
      [ 1.0; 1.0005; 1.001; 2.0 ];
    Sim.schedule sim ~delay:1.5 (fun () -> log := 99 :: !log);
    (* Only [run_until] consults the controller. *)
    Sim.run_until sim 10.0;
    (List.rev !log, Sim.decisions sim)
  in
  let free, d0 = order None in
  let controlled, d1 =
    order (Some { Sim.window = 0.01; choose = (fun ~now:_ _ -> 0) })
  in
  Alcotest.(check (list int)) "same firing order" free controlled;
  Alcotest.(check int) "no decisions uncontrolled" 0 d0;
  Alcotest.(check bool) "decisions offered" true (d1 > 0)

let test_controller_accelerates_choice () =
  let sim = typed_sim () in
  let fired = ref [] in
  Sim.set_controller sim
    (Some
       {
         Sim.window = 0.01;
         choose = (fun ~now:_ arr -> Array.length arr - 1);
       });
  List.iteri
    (fun i d ->
      deliver sim ~delay:d ~src:0 ~dst:i ~note:(Printf.sprintf "m%d" i)
        (fun () -> fired := (i, Sim.now sim) :: !fired))
    [ 1.0; 1.0005 ];
  Sim.run_until sim 10.0;
  match List.rev !fired with
  | [ (first, t_first); (second, _) ] ->
      Alcotest.(check int) "later candidate fires first" 1 first;
      Alcotest.(check int) "earlier candidate fires second" 0 second;
      (* The chosen delivery is pulled forward to the window base. *)
      Alcotest.(check (float 1e-12)) "fires at window base" 1.0 t_first
  | other ->
      Alcotest.failf "expected two firings, got %d" (List.length other)

let test_pending_deliveries_sorted () =
  let sim = typed_sim () in
  Alcotest.(check int)
    "empty without controller" 0
    (List.length (Sim.pending_deliveries sim));
  Sim.set_controller sim
    (Some { Sim.window = 0.01; choose = (fun ~now:_ _ -> 0) });
  List.iter
    (fun (d, dst) -> deliver sim ~delay:d ~src:0 ~dst ~note:"m" (fun () -> ()))
    [ (2.0, 2); (1.0, 1); (3.0, 3) ];
  Sim.schedule sim ~delay:0.5 (fun () -> ());
  let ats = List.map (fun (at, _, _, _) -> at) (Sim.pending_deliveries sim) in
  Alcotest.(check (list (float 1e-12)))
    "sorted by timestamp, closures excluded" [ 1.0; 2.0; 3.0 ] ats

(* --- scheduler cells and controlled runs --- *)

let cell ?faults ?(protocol = Config.Hotstuff) ?(byz_no = 0)
    ?(strategy = Config.Honest) ?(horizon = 0.6) () =
  Scheduler.scenario ?faults ~protocol ~n:4 ~byz_no ~strategy ~horizon
    ~timeout:0.05 ()

let test_scenario_validates () =
  let s = cell () in
  Alcotest.(check (float 0.0)) "no client load" 0.0 s.Scenario.rate;
  Alcotest.(check int) "n" 4 s.Scenario.config.Config.n;
  Alcotest.(check (float 0.0)) "sigma 0" 0.0 s.Scenario.config.Config.sigma;
  match cell ~byz_no:3 () with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the bound" true (contains msg "fault bound")
  | _ -> Alcotest.fail "byz_no over the fault bound must be rejected"

let test_run_replay_determinism () =
  let s = cell () in
  let window = 1e-4 in
  let o =
    Scheduler.run ~window ~max_decisions:4 ~prefix:[]
      ~pick:(fun v -> Array.length v.Scheduler.v_candidates - 1)
      s
  in
  Alcotest.(check bool) "recorded decisions" true (o.Scheduler.o_decisions <> []);
  Alcotest.(check bool) "honest cell passes" true
    (Monitor.pass o.Scheduler.o_verdict.Fuzz.report);
  let choices = Scheduler.choices_of ~prefix:[] o in
  let r = Scheduler.replay ~window ~choices s in
  Alcotest.(check int) "same decision points" o.Scheduler.o_sim_decisions
    r.Scheduler.o_sim_decisions;
  Alcotest.(check bool) "replay passes too" true
    (Monitor.pass r.Scheduler.o_verdict.Fuzz.report);
  (* Same run twice is structurally identical. *)
  let o2 =
    Scheduler.run ~window ~max_decisions:4 ~prefix:[]
      ~pick:(fun v -> Array.length v.Scheduler.v_candidates - 1)
      s
  in
  Alcotest.(check (list int)) "deterministic choices" choices
    (Scheduler.choices_of ~prefix:[] o2)

let test_explore_after_scopes_budget () =
  let s = cell () in
  let o =
    Scheduler.run ~explore_after:999.0 ~window:1e-4 ~max_decisions:4
      ~prefix:[] ~pick:(fun _ -> 1) s
  in
  Alcotest.(check int) "nothing recorded past the horizon" 0
    (List.length o.Scheduler.o_decisions);
  Alcotest.(check (list int)) "no tail either" [] o.Scheduler.o_tail

let test_depth_budget_counts_prefix () =
  let s = cell () in
  let prefix =
    [
      { Scheduler.f_choice = 0; f_sleep = [] };
      { Scheduler.f_choice = 0; f_sleep = [] };
    ]
  in
  let o =
    Scheduler.run ~window:1e-4 ~max_decisions:2 ~prefix ~pick:(fun _ -> 0) s
  in
  (* The absolute tree depth is [max_decisions]: two forced entries already
     spend the whole budget, so nothing further is recorded. *)
  Alcotest.(check int) "nothing recorded" 0
    (List.length o.Scheduler.o_decisions);
  Alcotest.(check bool) "stopped at depth" true
    (o.Scheduler.o_stop = Scheduler.Depth)

let test_fingerprints_stable () =
  let s = cell () in
  let fingerprints () =
    let o =
      Scheduler.run ~window:1e-4 ~max_decisions:3 ~prefix:[]
        ~pick:(fun _ -> 0) s
    in
    List.map (fun d -> d.Scheduler.d_fingerprint) o.Scheduler.o_decisions
  in
  let a = fingerprints () in
  Alcotest.(check bool) "some decisions" true (a <> []);
  List.iter
    (fun fp ->
      Alcotest.(check int) "hex digest length" 64 (String.length fp);
      Alcotest.(check bool) "hex digest charset" true
        (String.for_all
           (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false)
           fp))
    a;
  Alcotest.(check (list string)) "identical run, identical hashes" a
    (fingerprints ());
  (* Golden digests: any change to what the fingerprint covers (replica
     engines, pending deliveries, armed timers) or to the schedule that
     reaches these states moves them. *)
  Alcotest.(check (list string))
    "golden digests"
    [
      "1014b5dd635ab7716fea428e7a740b7aad60ccc91b73d738dedb17ed2844e612";
      "a4f92e3992f622b59ea6f457adb414ed82757d91e9f9c3398fa8222a4da11665";
      "f81e45d4be685b1a7dd57a396bd1d41dc7ce944ade81d2efd8bd4d20f91e777f";
    ]
    a

(* --- DFS: exhaustion, jobs-independence, POR reduction --- *)

let check_stats_equal name (a : Strategy.stats) (b : Strategy.stats) =
  Alcotest.(check int) (name ^ " runs") a.Strategy.runs b.Strategy.runs;
  Alcotest.(check int) (name ^ " states") a.Strategy.states b.Strategy.states;
  Alcotest.(check int)
    (name ^ " decisions")
    a.Strategy.decisions b.Strategy.decisions;
  Alcotest.(check int)
    (name ^ " pruned_sleep")
    a.Strategy.pruned_sleep b.Strategy.pruned_sleep;
  Alcotest.(check int)
    (name ^ " pruned_visited")
    a.Strategy.pruned_visited b.Strategy.pruned_visited;
  Alcotest.(check int)
    (name ^ " frontier_peak")
    a.Strategy.frontier_peak b.Strategy.frontier_peak;
  Alcotest.(check bool) (name ^ " exhausted") a.Strategy.exhausted
    b.Strategy.exhausted

let test_dfs_exhausts_jobs_independent () =
  let s = cell () in
  let run jobs =
    Strategy.dfs ~window:1e-4 ~max_decisions:4 ~max_runs:500 ~jobs s
  in
  let s1, c1 = run 1 in
  let s4, c4 = run 4 in
  Alcotest.(check bool) "exhausted" true s1.Strategy.exhausted;
  Alcotest.(check bool) "several runs" true (s1.Strategy.runs > 1);
  Alcotest.(check bool) "states counted" true (s1.Strategy.states > 0);
  Alcotest.(check bool) "no violation at jobs=1" true (c1 = None);
  Alcotest.(check bool) "no violation at jobs=4" true (c4 = None);
  check_stats_equal "jobs 1 = jobs 4" s1 s4

let test_por_reduction () =
  let s = cell () in
  let on, _ =
    Strategy.dfs ~por:true ~window:1e-4 ~max_decisions:4 ~max_runs:500
      ~jobs:2 s
  in
  let off, _ =
    Strategy.dfs ~por:false ~window:1e-4 ~max_decisions:4 ~max_runs:500
      ~jobs:2 s
  in
  Alcotest.(check bool) "both exhausted" true
    (on.Strategy.exhausted && off.Strategy.exhausted);
  Alcotest.(check bool)
    (Printf.sprintf "POR halves the state count at least (%d vs %d)"
       on.Strategy.states off.Strategy.states)
    true
    (off.Strategy.states >= 2 * on.Strategy.states);
  Alcotest.(check bool) "POR reduces runs too" true
    (off.Strategy.runs > on.Strategy.runs)

(* --- planted bug: the knife-edge cell ---

   Acceleration-only scheduling cannot delay a message, so in a fault-free
   cell the broken voting rule never manifests. Isolating replica 1 across
   the partition onset at 0.162 s puts the default schedule exactly on the
   safe side; accelerating deliveries shifts the later phases against the
   fixed partition window and flips the run into an agreement violation. *)

let knife_edge () =
  cell
    ~faults:
      [
        {
          Schedule.at = 0.162;
          until = Some 0.312;
          spec = Schedule.Partition { a = [ 1 ]; b = [] };
        };
      ]
    ~protocol:Config.Twochain ~byz_no:1 ~strategy:Config.Silence ~horizon:1.2
    ()

let kw = 0.002 (* knife-edge cell window *)

let test_planted_bug_default_passes () =
  let s = knife_edge () in
  let o =
    Scheduler.run ~wrap:Fuzz.broken_voting_rule ~window:kw ~max_decisions:0
      ~prefix:[] ~pick:(fun _ -> 0) s
  in
  Alcotest.(check bool) "default schedule passes" true
    (Monitor.pass o.Scheduler.o_verdict.Fuzz.report)

let test_planted_bug_dfs () =
  let s = knife_edge () in
  let _, cex =
    Strategy.dfs ~wrap:Fuzz.broken_voting_rule ~window:kw ~max_decisions:6
      ~max_runs:120 ~jobs:2 s
  in
  match cex with
  | None -> Alcotest.fail "DFS must find the planted voting bug"
  | Some c ->
      Alcotest.(check string) "strategy tag" "dfs" c.Strategy.c_strategy;
      Alcotest.(check string) "agreement violation" "agreement"
        (Monitor.invariant_name c.Strategy.c_minimized.Fuzz.invariant);
      Alcotest.(check bool) "schedule shrunk" true
        (List.length c.Strategy.c_choices <= 6);
      (* The minimized schedule replays to the same violation... *)
      let r =
        Scheduler.replay ~wrap:Fuzz.broken_voting_rule ~window:kw
          ~choices:c.Strategy.c_choices c.Strategy.c_minimized.Fuzz.scenario
      in
      Alcotest.(check bool) "replay reproduces" false
        (Monitor.pass r.Scheduler.o_verdict.Fuzz.report);
      (* ...and without the planted rule the same schedule is safe. *)
      let honest =
        Scheduler.replay ~window:kw ~choices:c.Strategy.c_choices
          c.Strategy.c_minimized.Fuzz.scenario
      in
      Alcotest.(check bool) "honest rule survives the schedule" true
        (Monitor.pass honest.Scheduler.o_verdict.Fuzz.report);
      (* Round-trip through the replayable artifact. *)
      let json = Strategy.counterexample_to_json c in
      (match Strategy.schedule_of_json json with
      | Ok (Some sched) ->
          Alcotest.(check (float 0.0)) "window survives" kw
            sched.Strategy.window;
          Alcotest.(check (float 0.0)) "explore_after survives" 0.0
            sched.Strategy.explore_after;
          Alcotest.(check (list int)) "choices survive" c.Strategy.c_choices
            sched.Strategy.choices
      | Ok None -> Alcotest.fail "schedule member missing from artifact"
      | Error e -> Alcotest.fail e);
      (* The artifact still parses as a plain fuzzer reproducer. *)
      (match Fuzz.artifact_of_json json with
      | Ok (_, invariant) ->
          Alcotest.(check string) "fuzzer parses the artifact" "agreement"
            (Monitor.invariant_name invariant)
      | Error e -> Alcotest.fail e)

let test_planted_bug_pct () =
  let s = knife_edge () in
  let stats, cex =
    Strategy.pct ~wrap:Fuzz.broken_voting_rule ~window:kw ~max_decisions:6
      ~max_runs:64 ~d:3 ~root_seed:1 ~jobs:2 s
  in
  Alcotest.(check bool) "PCT never exhausts" false stats.Strategy.exhausted;
  match cex with
  | None -> Alcotest.fail "PCT must find the planted voting bug"
  | Some c ->
      Alcotest.(check string) "strategy tag" "pct" c.Strategy.c_strategy;
      Alcotest.(check string) "agreement violation" "agreement"
        (Monitor.invariant_name c.Strategy.c_minimized.Fuzz.invariant);
      let r =
        Scheduler.replay ~wrap:Fuzz.broken_voting_rule ~window:kw
          ~choices:c.Strategy.c_choices c.Strategy.c_minimized.Fuzz.scenario
      in
      Alcotest.(check bool) "replay reproduces" false
        (Monitor.pass r.Scheduler.o_verdict.Fuzz.report)

let test_honest_knife_edge_passes () =
  (* The identical exploration with the real voting rule: the violation is
     the planted bug's, not an artifact of controlled scheduling. *)
  let stats, cex =
    Strategy.dfs ~window:kw ~max_decisions:6 ~max_runs:120 ~jobs:2
      (knife_edge ())
  in
  Alcotest.(check bool) "no violation" true (cex = None);
  Alcotest.(check bool) "space exhausted" true stats.Strategy.exhausted

let test_pct_deterministic () =
  let s = cell () in
  let run jobs =
    Strategy.pct ~window:1e-4 ~max_decisions:3 ~max_runs:6 ~d:2 ~root_seed:7
      ~jobs s
  in
  let s1, c1 = run 1 in
  let s2, c2 = run 2 in
  Alcotest.(check bool) "honest cell passes" true (c1 = None && c2 = None);
  Alcotest.(check bool) "decisions recorded" true (s1.Strategy.decisions > 0);
  Alcotest.(check int) "PCT never counts states" 0 s1.Strategy.states;
  check_stats_equal "pct jobs 1 = jobs 2" s1 s2

(* --- schedule JSON --- *)

let test_schedule_of_json_errors () =
  let check_err name json needle =
    match Strategy.schedule_of_json json with
    | Error e -> Alcotest.(check bool) (name ^ ": " ^ e) true (contains e needle)
    | Ok _ -> Alcotest.fail (name ^ ": expected an error")
  in
  (match Strategy.schedule_of_json (Json.Obj [ ("label", Json.String "x") ]) with
  | Ok None -> ()
  | _ -> Alcotest.fail "no schedule member must parse as Ok None");
  check_err "non-object schedule"
    (Json.Obj [ ("schedule", Json.Int 3) ])
    "schedule";
  check_err "missing window"
    (Json.Obj
       [ ("schedule", Json.Obj [ ("choices", Json.List [ Json.Int 0 ]) ]) ])
    "window";
  check_err "missing choices"
    (Json.Obj [ ("schedule", Json.Obj [ ("window", Json.Float 0.002) ]) ])
    "choices";
  check_err "non-integer choice"
    (Json.Obj
       [
         ("schedule",
          Json.Obj
            [
              ("window", Json.Float 0.002);
              ("choices", Json.List [ Json.String "x" ]);
            ]);
       ])
    "choices";
  match
    Strategy.schedule_of_json
      (Json.Obj
         [
           ("schedule",
            Json.Obj
              [
                ("window", Json.Float 0.002);
                ("choices", Json.List [ Json.Int 1; Json.Int 0 ]);
              ]);
         ])
  with
  | Ok (Some sched) ->
      Alcotest.(check (float 0.0)) "exploreAfter defaults to 0" 0.0
        sched.Strategy.explore_after;
      Alcotest.(check (list int)) "choices" [ 1; 0 ] sched.Strategy.choices
  | Ok None -> Alcotest.fail "schedule member present but not parsed"
  | Error e -> Alcotest.fail e

(* --- scenario JSON error paths (the replay entry point) --- *)

let mutate_member key value = function
  | Json.Obj members ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if k <> key then Some (k, v)
             else match value with None -> None | Some v' -> Some (k, v'))
           members)
  | j -> j

let mutate_config key value = function
  | Json.Obj members ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             if k = "config" then (k, mutate_member key value v) else (k, v))
           members)
  | j -> j

let test_scenario_of_json_errors () =
  let base = Scenario.to_json (knife_edge ()) in
  (match Scenario.of_json base with
  | Ok s ->
      Alcotest.(check string) "round-trips" "explore" s.Scenario.label;
      Alcotest.(check int) "faults survive" 1
        (List.length s.Scenario.config.Config.faults)
  | Error e -> Alcotest.fail e);
  let expect name json needle =
    match Scenario.of_json json with
    | Error e ->
        Alcotest.(check bool) (name ^ ": " ^ e) true (contains e needle)
    | Ok _ -> Alcotest.fail (name ^ ": expected an error")
  in
  expect "missing rate" (mutate_member "rate" None base) "missing \"rate\"";
  expect "non-numeric rate"
    (mutate_member "rate" (Some (Json.String "fast")) base)
    "\"rate\" must be a number";
  expect "malformed faults"
    (mutate_config "faults" (Some (Json.Int 3)) base)
    "faults";
  expect "fault id out of range"
    (mutate_config "faults"
       (Some
          (Schedule.to_json
             [
               {
                 Schedule.at = 0.1;
                 until = None;
                 spec = Schedule.Partition { a = [ 9 ]; b = [] };
               };
             ]))
       base)
    "out of range";
  expect "non-validating cluster"
    (mutate_config "byzNo" (Some (Json.Int 2)) base)
    "fault bound";
  expect "not an object" (Json.String "nope") "must be a JSON object"

let suite =
  [
    Alcotest.test_case "sim: neutral controller keeps heap order" `Quick
      test_neutral_controller_order;
    Alcotest.test_case "sim: chosen candidate fires at window base" `Quick
      test_controller_accelerates_choice;
    Alcotest.test_case "sim: pending_deliveries sorted" `Quick
      test_pending_deliveries_sorted;
    Alcotest.test_case "scheduler: cell validates" `Quick
      test_scenario_validates;
    Alcotest.test_case "scheduler: run/replay determinism" `Quick
      test_run_replay_determinism;
    Alcotest.test_case "scheduler: explore_after scopes the budget" `Quick
      test_explore_after_scopes_budget;
    Alcotest.test_case "scheduler: depth budget counts the prefix" `Quick
      test_depth_budget_counts_prefix;
    Alcotest.test_case "scheduler: fingerprints are stable digests" `Quick
      test_fingerprints_stable;
    Alcotest.test_case "dfs: exhausts, jobs-independent" `Slow
      test_dfs_exhausts_jobs_independent;
    Alcotest.test_case "dfs: POR >= 2x state reduction" `Slow
      test_por_reduction;
    Alcotest.test_case "planted bug: default schedule passes" `Quick
      test_planted_bug_default_passes;
    Alcotest.test_case "planted bug: DFS finds, shrinks, replays" `Slow
      test_planted_bug_dfs;
    Alcotest.test_case "planted bug: PCT finds it too" `Slow
      test_planted_bug_pct;
    Alcotest.test_case "planted bug: honest rule explores clean" `Slow
      test_honest_knife_edge_passes;
    Alcotest.test_case "pct: deterministic for a fixed root seed" `Quick
      test_pct_deterministic;
    Alcotest.test_case "schedule JSON: errors and defaults" `Quick
      test_schedule_of_json_errors;
    Alcotest.test_case "scenario JSON: error paths" `Quick
      test_scenario_of_json_errors;
  ]
