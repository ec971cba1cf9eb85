(* The bamboo_check subsystem: invariant monitors over synthetic traces,
   the end-to-end oracle on healthy and combined-adversary runs, and the
   acceptance story for the fuzzer — a planted unsafe voting rule must be
   caught by the agreement monitor, shrunk to a tiny reproducer and
   confirmed by replay, deterministically at any job count. *)

module Config = Bamboo.Config
module Runtime = Bamboo.Runtime
module Workload = Bamboo.Workload
module Trace = Bamboo_obs.Trace
module Schedule = Bamboo_faults.Schedule
module Monitor = Bamboo_check.Monitor
module Scenario = Bamboo_check.Scenario
module Fuzz = Bamboo_check.Fuzz

let all_protocols =
  [ Config.Hotstuff; Config.Twochain; Config.Streamlet; Config.Fasthotstuff ]

let ev ?(node = 0) ?(view = 0) ?(span = 0) ?(ts = 0.0) kind =
  { Trace.seq = 0; ts; node; view; kind; span; args = [] }

let names vs =
  List.map
    (fun (v : Monitor.violation) -> Monitor.invariant_name v.Monitor.invariant)
    vs

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* Trace events as both runtimes emit them: blocks named by hash. *)
let dev ?(node = 0) ?(view = 0) ?(ts = 0.0) ?(args = []) kind =
  { Trace.seq = 0; ts; node; view; kind; span = 0; args }

let harg h = [ ("hash", Bamboo_util.Json.String h) ]
let qc ?ts ~view h = dev ?ts ~view ~args:(harg h) Trace.Qc_formed
let vote ?ts ~node ~view h = dev ?ts ~node ~view ~args:(harg h) Trace.Vote_sent

(* --- certification uniqueness on synthetic traces --- *)

let test_cert_unique () =
  let ok =
    Monitor.check_trace
      [
        qc ~ts:1.0 ~view:1 "aa";
        qc ~ts:1.1 ~view:1 "aa";
        (* duplicate QC observations of the same block are fine *)
        qc ~ts:1.2 ~view:2 "bb";
        dev ~ts:1.3 ~view:2 Trace.Qc_formed;
        (* no hash = unknown block; ignored *)
      ]
  in
  Alcotest.(check (list string)) "unique certs pass" [] (names ok.Monitor.violations);
  let bad = Monitor.check_trace [ qc ~ts:1.0 ~view:4 "aa"; qc ~ts:1.1 ~view:4 "bb" ] in
  Alcotest.(check (list string)) "conflicting certs flagged" [ "cert_unique" ]
    (names bad.Monitor.violations)

(* --- vote safety on synthetic traces --- *)

let test_vote_safety () =
  let ok =
    Monitor.check_trace ~byz_no:1
      [
        vote ~ts:1.0 ~node:1 ~view:1 "aa";
        vote ~ts:1.1 ~node:1 ~view:2 "bb";
        dev ~ts:1.2 ~node:1 ~view:3 Trace.Timeout_fired;
        vote ~ts:1.3 ~node:1 ~view:4 "cc";
        (* the Byzantine replica (id < byz_no) may double-vote freely *)
        vote ~ts:1.4 ~node:0 ~view:5 "dd";
        vote ~ts:1.5 ~node:0 ~view:5 "ee";
      ]
  in
  Alcotest.(check (list string)) "clean votes pass" [] (names ok.Monitor.violations);
  let double =
    Monitor.check_trace
      [ vote ~ts:1.0 ~node:2 ~view:7 "aa"; vote ~ts:1.1 ~node:2 ~view:7 "bb" ]
  in
  Alcotest.(check (list string)) "double vote flagged" [ "vote_safety" ]
    (names double.Monitor.violations);
  let abandoned =
    Monitor.check_trace
      [
        dev ~ts:1.0 ~node:2 ~view:7 Trace.Timeout_fired;
        vote ~ts:1.1 ~node:2 ~view:7 "aa";
      ]
  in
  Alcotest.(check (list string)) "vote in abandoned view flagged"
    [ "vote_safety" ] (names abandoned.Monitor.violations)

(* --- the agreement oracle on synthetic chains --- *)

module Agreement = Bamboo.Agreement

let block ?(txs = []) h hash =
  {
    Bamboo_types.Block.genesis with
    hash;
    height = h;
    view = h;
    body = Bamboo_types.Body.of_list txs;
  }

(* Feeds each replica's chain, one replica after another. *)
let oracle_of chains =
  let o = Agreement.create ~replicas:(Array.init (Array.length chains) Fun.id) in
  Array.iteri
    (fun replica chain -> List.iter (Agreement.commit o ~replica) chain)
    chains;
  o

let agreement_of ?local_conflicts chains =
  Monitor.check_agreement ?local_conflicts
    (Agreement.verdict (oracle_of chains))

let test_agreement () =
  let a = [ block 1 "aa"; block 2 "bb" ] in
  Alcotest.(check (list string)) "prefix-compatible chains pass" []
    (names (agreement_of [| a; [ block 1 "aa" ] |]));
  (match agreement_of [| a; [ block 1 "aa"; block 2 "cc" ] |] with
  | [ { Monitor.invariant = Monitor.Agreement; detail } ] ->
      Alcotest.(check bool) "detail names the height" true
        (contains detail "height 2")
  | vs -> Alcotest.failf "expected one agreement violation, got %d" (List.length vs));
  (* Same hashes but diverging committed tx order is still a violation. *)
  let t c s = Bamboo_types.Tx.make ~client:c ~seq:s ~payload_len:0 in
  Alcotest.(check (list string)) "tx order divergence flagged" [ "agreement" ]
    (names
       (agreement_of
          [| [ block ~txs:[ t 1 1; t 1 2 ] 1 "aa" ];
             [ block ~txs:[ t 1 2; t 1 1 ] 1 "aa" ] |]));
  (* A replica-local commit conflict is a violation on its own. *)
  Alcotest.(check (list string)) "local conflict flagged" [ "agreement" ]
    (names (agreement_of ~local_conflicts:[| false; true |] [| a; a |]))

(* The verdict does not depend on how the replicas' commits interleave. *)
let test_agreement_interleaved () =
  let chain prefix = List.init 6 (fun h -> block (h + 1) (prefix h)) in
  let honest = chain (Printf.sprintf "h%d") in
  let forked = chain (fun h -> if h < 3 then Printf.sprintf "h%d" h else Printf.sprintf "f%d" h) in
  let chains = [| honest; forked; honest |] in
  let sequential = Agreement.verdict (oracle_of chains) in
  let o = Agreement.create ~replicas:[| 0; 1; 2 |] in
  for h = 0 to 5 do
    (* the replicas' order alternates between odd and even heights *)
    List.iter
      (fun replica -> Agreement.commit o ~replica (List.nth chains.(replica) h))
      (if h mod 2 = 0 then [ 2; 0; 1 ] else [ 1; 2; 0 ])
  done;
  let interleaved = Agreement.verdict o in
  Alcotest.(check (list string)) "same findings"
    (List.map (fun v -> v.Monitor.detail) (Monitor.check_agreement sequential))
    (List.map (fun v -> v.Monitor.detail) (Monitor.check_agreement interleaved));
  Alcotest.(check bool) "same heads" true
    (sequential.Agreement.heads = interleaved.Agreement.heads);
  Alcotest.(check int) "one finding per diverging pair" 2
    (List.length sequential.Agreement.conflicts)

(* A height every replica has committed without conflict is dropped; the
   heads still pin the chains. *)
let test_agreement_drops_heights () =
  let o = Agreement.create ~replicas:[| 0; 1 |] in
  Agreement.commit o ~replica:0 (block 1 "aa");
  Agreement.commit o ~replica:0 (block 2 "bb");
  Alcotest.(check int) "heights open while replica 1 lags" 2
    (Agreement.open_heights o);
  Agreement.commit o ~replica:1 (block 1 "aa");
  Alcotest.(check int) "a height committed by all is dropped" 1
    (Agreement.open_heights o);
  Agreement.commit o ~replica:1 (block 2 "bb");
  Alcotest.(check int) "no state once both agree" 0 (Agreement.open_heights o);
  let v = Agreement.verdict o in
  Alcotest.(check (list string)) "heads" [ "bb"; "bb" ] (Array.to_list v.Agreement.heads);
  Alcotest.(check int) "no conflicts" 0 (List.length v.Agreement.conflicts);
  (* A re-commit of an open height with another block is a conflict. *)
  Agreement.commit o ~replica:0 (block 3 "cc");
  Agreement.commit o ~replica:0 (block 3 "dd");
  Alcotest.(check (list string)) "re-commit flagged" [ "agreement" ]
    (names (Monitor.check_agreement (Agreement.verdict o)))

(* --- bounded liveness gating and verdicts --- *)

let crash_recovery = { Schedule.at = 0.3; until = Some 0.5; spec = Schedule.Crash { node = 2 } }

let live_config faults =
  { Config.default with n = 4; timeout = 0.05; runtime = 2.0; faults }

let test_liveness () =
  let config = live_config [ crash_recovery ] in
  (match
     Monitor.check_liveness ~config [ ev ~ts:0.7 Trace.Commit ]
   with
  | Ok [] -> ()
  | Ok vs -> Alcotest.failf "expected pass, got %d violations" (List.length vs)
  | Error e -> Alcotest.failf "expected applicable, skipped: %s" e);
  (match Monitor.check_liveness ~config [ ev ~ts:0.2 Trace.Commit ] with
  | Ok [ { Monitor.invariant = Monitor.Liveness; _ } ] -> ()
  | Ok _ -> Alcotest.fail "commit before the heal must not satisfy liveness"
  | Error e -> Alcotest.failf "expected applicable, skipped: %s" e);
  (* A permanent partition makes the bound vacuous: skip, don't flag. *)
  let partitioned =
    live_config
      [ { Schedule.at = 0.3; until = None; spec = Schedule.Partition { a = [ 0 ]; b = [] } } ]
  in
  (match Monitor.check_liveness ~config:partitioned [] with
  | Error reason ->
      Alcotest.(check bool) "reason mentions the partition" true
        (contains reason "partition")
  | Ok _ -> Alcotest.fail "permanent partition must disable the bound");
  (* More than f permanently faulty likewise. *)
  let overloaded =
    {
      (live_config [ { crash_recovery with until = None } ]) with
      Config.byz_no = 1;
      strategy = Config.Silence;
    }
  in
  (match Monitor.check_liveness ~config:overloaded [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "byz + permanent crash > f must disable the bound")

(* --- combined adversaries stay safe and live --- *)

let run_combined name protocol ~strategy ~faults =
  let timeout = 0.05 in
  let config =
    {
      Config.default with
      protocol;
      n = 4;
      byz_no = 1;
      strategy;
      timeout;
      tc_adopt_qc = false;
      runtime = 1.8;
      warmup = 0.2;
      seed = 42;
      faults;
    }
  in
  (match Config.validate config with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: invalid config: %s" name e);
  let v =
    Fuzz.run_scenario { Scenario.label = name; rate = 800.0; config }
  in
  Alcotest.(check (list string)) (name ^ ": no violations") []
    (names v.Fuzz.report.Monitor.violations);
  Alcotest.(check bool) (name ^ ": liveness bound applied") true
    (not
       (List.exists
          (fun (i, _) -> i = Monitor.Liveness)
          v.Fuzz.report.Monitor.skipped))

(* Fork attacker while its own outbound links lag: the leader's forked
   proposals arrive late and honest locks must still prevent divergence. *)
let fork_with_leader_delay protocol =
  run_combined
    (Config.protocol_name protocol ^ "+fork+delay")
    protocol ~strategy:Config.Fork
    ~faults:
      [
        {
          Schedule.at = 0.3;
          until = Some 0.8;
          spec =
            Schedule.Link_delay
              { src = Schedule.Nodes [ 0 ]; dst = Schedule.All; mu = 0.02; sigma = 0.004 };
        };
      ]

(* Silent Byzantine leader plus an honest replica crash-recovering: during
   the overlap only 2 of 4 replicas are up, so progress stalls, but after
   the heal commits must resume within the view budget. *)
let silence_with_crash_recovery protocol =
  run_combined
    (Config.protocol_name protocol ^ "+silence+crash")
    protocol ~strategy:Config.Silence
    ~faults:[ { Schedule.at = 0.4; until = Some 0.8; spec = Schedule.Crash { node = 2 } } ]

let test_combined_adversaries () =
  List.iter
    (fun p ->
      fork_with_leader_delay p;
      silence_with_crash_recovery p)
    [ Config.Hotstuff; Config.Twochain; Config.Streamlet ]

(* --- the oracle sees nothing on a healthy generated scenario --- *)

let test_generated_scenarios_healthy () =
  List.iter
    (fun index ->
      let s = Scenario.generate ~root_seed:1 ~index ~protocols:all_protocols in
      let v = Fuzz.run_scenario s in
      Alcotest.(check (list string))
        (Scenario.describe s ^ ": clean")
        []
        (names v.Fuzz.report.Monitor.violations))
    [ 0; 5 ]

(* Attaching the monitoring trace must not perturb the simulation: the
   summary with a ring sink is identical to the one with the null trace. *)
let test_monitoring_is_inert () =
  let s = Scenario.generate ~root_seed:1 ~index:2 ~protocols:all_protocols in
  let run trace =
    Runtime.run ~config:s.Scenario.config
      ~workload:(Workload.open_loop ~rate:s.Scenario.rate ())
      ~trace ()
  in
  let observed = run (Trace.ring ~capacity:(1 lsl 20)) in
  let blind = run Trace.null in
  Alcotest.(check bool) "summaries identical" true
    (observed.Runtime.summary = blind.Runtime.summary);
  (* A head hash pins its replica's whole committed chain. *)
  Alcotest.(check bool) "committed heights and heads identical" true
    (observed.Runtime.committed_heights = blind.Runtime.committed_heights
    && observed.Runtime.agreement.Agreement.heads
       = blind.Runtime.agreement.Agreement.heads)

(* --- acceptance: planted unsafe voting rule caught, shrunk, replayed --- *)

(* (root_seed, index) pairs where the fuzzer catches the planted rule;
   found by scanning seeds with `check fuzz --plant-broken-voting`. *)
let known_failures = [ (5, 17); (7, 7); (11, 1); (12, 25) ]

let broken_verdict ~root_seed ~index =
  let s = Scenario.generate ~root_seed ~index ~protocols:all_protocols in
  Fuzz.run_scenario ~wrap:Fuzz.broken_voting_rule s

let test_broken_voting_caught_and_shrunk () =
  let v = broken_verdict ~root_seed:5 ~index:17 in
  Alcotest.(check bool) "planted rule violates agreement" true
    (List.exists
       (fun (viol : Monitor.violation) -> viol.Monitor.invariant = Monitor.Agreement)
       v.Fuzz.report.Monitor.violations);
  let m = Fuzz.shrink ~wrap:Fuzz.broken_voting_rule v in
  Alcotest.(check bool) "shrunk invariant is agreement" true
    (m.Fuzz.invariant = Monitor.Agreement);
  let shrunk_faults = List.length m.Fuzz.scenario.Scenario.config.Config.faults in
  Alcotest.(check bool)
    (Printf.sprintf "reproducer has <= 5 fault events (%d)" shrunk_faults)
    true (shrunk_faults <= 5);
  (* Replay: the minimized scenario re-runs to the same verdict, twice. *)
  let r1 = Fuzz.run_scenario ~wrap:Fuzz.broken_voting_rule m.Fuzz.scenario in
  let r2 = Fuzz.run_scenario ~wrap:Fuzz.broken_voting_rule m.Fuzz.scenario in
  Alcotest.(check bool) "replay verdict stable" true
    (r1.Fuzz.report = r2.Fuzz.report);
  Alcotest.(check bool) "replay still violates agreement" true
    (List.exists
       (fun (viol : Monitor.violation) -> viol.Monitor.invariant = Monitor.Agreement)
       r1.Fuzz.report.Monitor.violations);
  (* Without the planted rule the same scenario is safe. *)
  let honest = Fuzz.run_scenario m.Fuzz.scenario in
  Alcotest.(check bool) "honest replay has no agreement violation" true
    (not
       (List.exists
          (fun (viol : Monitor.violation) -> viol.Monitor.invariant = Monitor.Agreement)
          honest.Fuzz.report.Monitor.violations));
  (* The reproducer artifact round-trips. *)
  match Fuzz.artifact_of_json (Fuzz.artifact_to_json m) with
  | Ok (s, inv) ->
      Alcotest.(check bool) "artifact scenario round-trips" true
        (s = m.Fuzz.scenario);
      Alcotest.(check bool) "artifact invariant round-trips" true
        (inv = Monitor.Agreement)
  | Error e -> Alcotest.failf "artifact does not round-trip: %s" e

(* --- properties --- *)

(* Shrinking preserves the violated invariant and never grows the fault
   schedule, whatever failure the fuzzer starts from. *)
let shrink_preserves_invariant =
  QCheck.Test.make ~count:2 ~name:"shrink preserves the failing invariant"
    (QCheck.make (QCheck.Gen.oneofl known_failures))
    (fun (root_seed, index) ->
      let v = broken_verdict ~root_seed ~index in
      if not (Fuzz.failed v) then
        QCheck.Test.fail_reportf "seed %d index %d no longer fails" root_seed
          index;
      let target =
        (List.hd v.Fuzz.report.Monitor.violations).Monitor.invariant
      in
      let m = Fuzz.shrink ~wrap:Fuzz.broken_voting_rule v in
      let replay =
        Fuzz.run_scenario ~wrap:Fuzz.broken_voting_rule m.Fuzz.scenario
      in
      m.Fuzz.invariant = target
      && List.exists
           (fun (viol : Monitor.violation) -> viol.Monitor.invariant = target)
           replay.Fuzz.report.Monitor.violations
      && List.length m.Fuzz.scenario.Scenario.config.Config.faults
         <= List.length v.Fuzz.scenario.Scenario.config.Config.faults)

(* The fuzz verdict list is a pure function of (root_seed, budget,
   protocols): the job count must not leak into the results. *)
let fuzz_jobs_invariant =
  QCheck.Test.make ~count:2 ~name:"fuzz verdicts identical at jobs=1 and jobs=4"
    QCheck.(make Gen.(int_range 1 1000))
    (fun root_seed ->
      let run jobs =
        Fuzz.fuzz ~root_seed ~budget:3 ~jobs ~protocols:all_protocols ()
      in
      run 1 = run 4)

(* --- hash-keyed trace checks: merged cluster traces and simulator runs --- *)

let test_check_trace_agreement () =
  let height h hash =
    ("height", Bamboo_util.Json.Int h) :: harg hash
  in
  (* two nodes agree at height 1 → clean *)
  let ok =
    [
      dev ~node:0 ~ts:1.0 ~args:(height 1 "aa") Trace.Commit;
      dev ~node:1 ~ts:1.1 ~args:(height 1 "aa") Trace.Commit;
    ]
  in
  Alcotest.(check bool) "agreeing commits pass" true
    (Monitor.pass (Monitor.check_trace ok));
  (* conflicting hashes at one height → agreement violation *)
  let bad =
    [
      dev ~node:0 ~ts:1.0 ~args:(height 1 "aa") Trace.Commit;
      dev ~node:1 ~ts:1.1 ~args:(height 1 "bb") Trace.Commit;
    ]
  in
  Alcotest.(check (list string))
    "conflict caught" [ "agreement" ]
    (names (Monitor.check_trace bad).Monitor.violations)

let test_check_trace_vote_safety_and_heal () =
  (* a vote for two different blocks in one view is a violation *)
  let double =
    [
      dev ~node:1 ~view:3 ~ts:1.0 ~args:(harg "aa") Trace.Vote_sent;
      dev ~node:1 ~view:3 ~ts:1.1 ~args:(harg "bb") Trace.Vote_sent;
    ]
  in
  Alcotest.(check (list string))
    "double vote caught" [ "vote_safety" ]
    (names (Monitor.check_trace double).Monitor.violations);
  (* re-sending the same vote is benign *)
  let resend =
    [
      dev ~node:1 ~view:3 ~ts:1.0 ~args:(harg "aa") Trace.Vote_sent;
      dev ~node:1 ~view:3 ~ts:1.1 ~args:(harg "aa") Trace.Vote_sent;
    ]
  in
  Alcotest.(check bool) "resend benign" true
    (Monitor.pass (Monitor.check_trace resend));
  (* the cluster merge's restart marker resets the node's vote state:
     the restarted process lost its vote history and may re-vote across
     the restart boundary *)
  let across heal_args =
    [
      vote ~ts:1.0 ~node:1 ~view:3 "aa";
      dev ~node:1 ~ts:2.0 ~args:heal_args Trace.Fault_heal;
      vote ~ts:3.0 ~node:1 ~view:3 "bb";
    ]
  in
  let crash = ("fault", Bamboo_util.Json.String "crash") in
  Alcotest.(check bool) "restart marker resets vote state" true
    (Monitor.pass (Monitor.check_trace (across [ crash; Monitor.restart_arg ])));
  (* a simulator crash heal keeps the replica's state (and so do slow and
     clock-skew heals): the conflicting vote is still flagged *)
  Alcotest.(check (list string))
    "simulator crash heal does not reset" [ "vote_safety" ]
    (names (Monitor.check_trace (across [ crash ])).Monitor.violations);
  Alcotest.(check (list string))
    "slow heal does not reset" [ "vote_safety" ]
    (names
       (Monitor.check_trace
          (across [ ("fault", Bamboo_util.Json.String "slow") ]))
         .Monitor.violations)

(* An honest simulator run names every voted and certified block by hash,
   so the same hash-keyed pass the cluster uses judges it. *)
let test_simulator_trace_hash_keyed () =
  let config =
    { Config.default with n = 4; timeout = 0.05; runtime = 1.5; warmup = 0.2; seed = 42 }
  in
  let trace = Trace.ring ~capacity:(1 lsl 20) in
  ignore (Runtime.run ~config ~workload:(Workload.open_loop ~rate:800.0 ()) ~trace ());
  let events = Trace.events trace in
  let of_kind k = List.filter (fun (e : Trace.event) -> e.kind = k) events in
  List.iter
    (fun (k, label) ->
      let evs = of_kind k in
      Alcotest.(check bool) (label ^ " events traced") true (evs <> []);
      Alcotest.(check bool) ("every " ^ label ^ " carries a hash") true
        (List.for_all
           (fun (e : Trace.event) -> List.mem_assoc "hash" e.args)
           evs))
    [ (Trace.Vote_sent, "vote_sent"); (Trace.Qc_formed, "qc_formed") ];
  Alcotest.(check (list string)) "check_trace passes" []
    (names (Monitor.check_trace events).Monitor.violations)

let test_check_trace_liveness () =
  let commit ts =
    dev ~node:0 ~ts
      ~args:(("height", Bamboo_util.Json.Int 1) :: harg "aa")
      Trace.Commit
  in
  Alcotest.(check bool) "commit after deadline passes" true
    (Monitor.pass
       (Monitor.check_trace ~expect_commit_after:5.0 [ commit 6.0 ]));
  Alcotest.(check (list string))
    "no commit after deadline fails" [ "liveness" ]
    (names
       (Monitor.check_trace ~expect_commit_after:5.0 [ commit 4.0 ])
         .Monitor.violations)

let suite =
  [
    Alcotest.test_case "cert-unique monitor" `Quick test_cert_unique;
    Alcotest.test_case "vote-safety monitor" `Quick test_vote_safety;
    Alcotest.test_case "agreement monitor" `Quick test_agreement;
    Alcotest.test_case "agreement order-independent" `Quick
      test_agreement_interleaved;
    Alcotest.test_case "agreement drops settled heights" `Quick
      test_agreement_drops_heights;
    Alcotest.test_case "liveness monitor" `Quick test_liveness;
    Alcotest.test_case "deployment trace agreement" `Quick
      test_check_trace_agreement;
    Alcotest.test_case "deployment trace vote safety + heal" `Quick
      test_check_trace_vote_safety_and_heal;
    Alcotest.test_case "deployment trace liveness" `Quick
      test_check_trace_liveness;
    Alcotest.test_case "simulator trace is hash-keyed" `Quick
      test_simulator_trace_hash_keyed;
    Alcotest.test_case "combined adversaries" `Slow test_combined_adversaries;
    Alcotest.test_case "generated scenarios healthy" `Slow
      test_generated_scenarios_healthy;
    Alcotest.test_case "monitoring is inert" `Slow test_monitoring_is_inert;
    Alcotest.test_case "broken voting rule caught, shrunk, replayed" `Slow
      test_broken_voting_caught_and_shrunk;
    QCheck_alcotest.to_alcotest shrink_preserves_invariant;
    QCheck_alcotest.to_alcotest fuzz_jobs_invariant;
  ]
