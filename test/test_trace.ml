(* Observability layer: trace sinks (ring / JSONL / Chrome), probes, the
   latency decomposition, and the zero-perturbation guarantee of tracing. *)

module Trace = Bamboo_obs.Trace
module Probe = Bamboo_obs.Probe
module Json = Bamboo_util.Json
module Runtime = Bamboo.Runtime
module Workload = Bamboo.Workload
module Config = Bamboo.Config

let base = { Config.default with runtime = 1.5; warmup = 0.3; seed = 11 }

let run ?trace ?(config = base) rate =
  Runtime.run ~config ~workload:(Workload.open_loop ~rate ()) ?trace ()

let with_temp_file f =
  let path = Filename.temp_file "bamboo_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* --- sinks --- *)

let test_null_disabled () =
  let t = Trace.null in
  Alcotest.(check bool) "null disabled" false (Trace.enabled t);
  Trace.emit t ~ts:1.0 ~node:0 Trace.Commit;
  Alcotest.(check (list reject)) "null buffers nothing" [] (Trace.events t)

let test_ring_order_and_wraparound () =
  let t = Trace.ring ~capacity:4 in
  Alcotest.(check bool) "ring enabled" true (Trace.enabled t);
  for i = 0 to 9 do
    Trace.emit t ~ts:(float_of_int i) ~node:(i mod 3) ~view:i Trace.Vote_sent
  done;
  let evs = Trace.events t in
  Alcotest.(check int) "capacity bounds retention" 4 (List.length evs);
  let seqs = List.map (fun (e : Trace.event) -> e.seq) evs in
  Alcotest.(check (list int)) "oldest-first, latest kept" [ 6; 7; 8; 9 ] seqs;
  List.iter
    (fun (e : Trace.event) ->
      Alcotest.(check (float 1e-9)) "ts preserved" (float_of_int e.seq) e.ts;
      Alcotest.(check int) "view preserved" e.seq e.view)
    evs

let test_event_json_schema () =
  let t = Trace.ring ~capacity:8 in
  Trace.emit t ~ts:0.5 ~node:2 ~view:7 ~span:3
    ~args:[ ("hash", Json.String "deadbeef") ]
    Trace.Proposal_sent;
  match Trace.events t with
  | [ e ] ->
      let j = Json.of_string (Json.to_string (Trace.event_to_json e)) in
      Alcotest.(check string) "kind" "proposal_sent"
        (Json.get_string (Json.member "kind" j));
      Alcotest.(check int) "node" 2 (Json.to_int (Json.member "node" j));
      Alcotest.(check int) "view" 7 (Json.to_int (Json.member "view" j));
      Alcotest.(check int) "span" 3 (Json.to_int (Json.member "span" j));
      Alcotest.(check string) "args survive" "deadbeef"
        (Json.get_string (Json.member "hash" (Json.member "args" j)))
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

let test_event_json_round_trip () =
  let t = Trace.ring ~capacity:8 in
  Trace.emit t ~ts:1.25 ~node:3 ~view:9 ~span:4
    ~args:[ ("hash", Json.String "cafe"); ("height", Json.Int 12) ]
    Trace.Commit;
  Trace.emit t ~ts:1.5 ~node:0 Trace.Timeout_fired;
  List.iter
    (fun e ->
      match Trace.event_of_json (Trace.event_to_json e) with
      | Ok got ->
          Alcotest.(check int) "seq" e.Trace.seq got.Trace.seq;
          Alcotest.(check int) "node" e.Trace.node got.Trace.node;
          Alcotest.(check int) "view" e.Trace.view got.Trace.view;
          Alcotest.(check int) "span" e.Trace.span got.Trace.span;
          Alcotest.(check string) "kind" (Trace.kind_name e.Trace.kind)
            (Trace.kind_name got.Trace.kind);
          Alcotest.(check int) "args" (List.length e.Trace.args)
            (List.length got.Trace.args)
      | Error err -> Alcotest.failf "round trip failed: %s" err)
    (Trace.events t);
  (match Trace.event_of_json (Json.Obj [ ("seq", Json.Int 0) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing members must be an error");
  match Trace.kind_of_name "no_such_kind" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown kind must be an error"

let test_jsonl_sink () =
  with_temp_file (fun path ->
      let oc = open_out path in
      let t = Trace.jsonl oc in
      Trace.emit t ~ts:0.1 ~node:0 ~view:1 Trace.Proposal_sent;
      Trace.emit t ~ts:0.2 ~node:1 ~view:1 Trace.Vote_sent;
      Trace.service t ~node:0 ~queue:`Cpu ~start:0.15 ~duration:0.01;
      Trace.gauge t ~ts:0.3 ~node:1 ~name:"cpu_queue_depth" 2.0;
      Trace.close t;
      close_out oc;
      let lines =
        String.split_on_char '\n' (read_file path)
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) "one line per event" 4 (List.length lines);
      let kinds =
        List.map
          (fun l -> Json.get_string (Json.member "kind" (Json.of_string l)))
          lines
      in
      Alcotest.(check (list string)) "kinds in emission order"
        [ "proposal_sent"; "vote_sent"; "service"; "gauge" ]
        kinds)

let chrome_names json =
  Json.member "traceEvents" json
  |> Json.to_list
  |> List.filter_map (fun e ->
         match Json.member "name" e with
         | Json.String s -> Some s
         | _ -> None)

let test_chrome_sink_valid_json () =
  with_temp_file (fun path ->
      let oc = open_out path in
      let t = Trace.chrome oc in
      Trace.emit t ~ts:0.001 ~node:0 ~view:1 ~span:1 Trace.Proposal_sent;
      Trace.service t ~node:0 ~queue:`Nic_out ~start:0.001 ~duration:0.0005;
      Trace.gauge t ~ts:0.002 ~node:0 ~name:"cpu_utilization" 0.5;
      Trace.close t;
      close_out oc;
      (* Round-tripping through the parser is the validity check. *)
      let j = Json.of_string (read_file path) in
      let names = chrome_names j in
      List.iter
        (fun n ->
          Alcotest.(check bool) (n ^ " present") true (List.mem n names))
        [ "proposal_sent"; "nic_out"; "cpu_utilization"; "process_name" ])

(* --- a real traced run --- *)

let test_chrome_trace_of_run () =
  with_temp_file (fun path ->
      let oc = open_out path in
      let t = Trace.chrome oc in
      let r = run ~trace:t 20000.0 in
      Trace.close t;
      close_out oc;
      Alcotest.(check bool) "run healthy" true
        (r.consistent && not r.any_violation);
      let names = chrome_names (Json.of_string (read_file path)) in
      List.iter
        (fun n ->
          Alcotest.(check bool) (n ^ " traced") true (List.mem n names))
        [
          "proposal_sent"; "proposal_received"; "vote_sent"; "vote_received";
          "qc_formed"; "commit"; "view_change"; "tx_enqueue"; "tx_dequeue";
          "cpu";
        ])

let test_spans_correlate_block_lifecycle () =
  let t = Trace.ring ~capacity:200_000 in
  let (_ : Runtime.result) = run ~trace:t 20000.0 in
  let evs = Trace.events t in
  (* Pick any commit and require the same span to carry a proposal and at
     least one vote: the span id is the cross-replica correlation key. *)
  let commit =
    List.find (fun (e : Trace.event) -> e.kind = Trace.Commit) evs
  in
  let of_kind k =
    List.exists
      (fun (e : Trace.event) -> e.kind = k && e.span = commit.span)
      evs
  in
  Alcotest.(check bool) "span has proposal" true (of_kind Trace.Proposal_sent);
  Alcotest.(check bool) "span has vote" true (of_kind Trace.Vote_sent);
  Alcotest.(check bool) "span nonzero" true (commit.span <> 0)

(* --- determinism / zero perturbation --- *)

let test_tracing_does_not_perturb () =
  let plain = run 20000.0 in
  let t = Trace.ring ~capacity:1024 in
  let traced = run ~trace:t 20000.0 in
  Alcotest.(check int) "same event count" plain.sim_events traced.sim_events;
  Alcotest.(check int) "same committed txs" plain.summary.committed_txs
    traced.summary.committed_txs;
  Alcotest.(check (float 1e-12)) "same latency" plain.summary.latency_mean
    traced.summary.latency_mean;
  Alcotest.(check (float 1e-12)) "same throughput" plain.summary.throughput
    traced.summary.throughput

(* --- probe --- *)

let test_probe_gauges () =
  let g = ref 1.0 in
  let p = Probe.create () in
  Probe.add_gauge p ~node:0 ~name:"g" (fun () -> !g);
  Probe.sample p ~now:0.01;
  g := 3.0;
  Probe.sample p ~now:0.02;
  match Probe.find_summary (Probe.summaries p) ~node:0 ~name:"g" with
  | None -> Alcotest.fail "gauge not found"
  | Some s ->
      Alcotest.(check int) "two samples" 2 s.samples;
      Alcotest.(check (float 1e-9)) "mean" 2.0 s.mean;
      Alcotest.(check (float 1e-9)) "max" 3.0 s.max

let test_probe_memory_flat () =
  (* samples live in the registry's running aggregates, so a probe's
     footprint does not depend on how many samples it took *)
  let p = Probe.create () in
  List.iteri
    (fun i name -> Probe.add_gauge p ~node:i ~name (fun () -> float_of_int i))
    [ "g_a"; "g_b"; "g_c" ];
  let sample_times n =
    for i = 1 to n do
      Probe.sample p ~now:(float_of_int i)
    done
  in
  sample_times 100;
  let short = Obj.reachable_words (Obj.repr p) in
  sample_times 19_900;
  Alcotest.(check int) "reachable words after 20,000 samples" short
    (Obj.reachable_words (Obj.repr p));
  Alcotest.(check (option int)) "samples counted" (Some 20_000)
    (Option.map
       (fun (s : Probe.summary) -> s.samples)
       (Probe.find_summary (Probe.summaries p) ~node:2 ~name:"g_c"))

let test_probe_saturated_run () =
  (* Drive 4-node HotStuff near saturation and require the probes to see a
     busy CPU: mean utilization well above zero on every replica. *)
  let config = { base with probe_interval = 0.01 } in
  let r = run ~config 60000.0 in
  Alcotest.(check bool) "probe summaries present" true (r.probe <> []);
  for node = 0 to config.n - 1 do
    match Probe.find_summary r.probe ~node ~name:"cpu_utilization" with
    | None -> Alcotest.failf "no cpu_utilization gauge for node %d" node
    | Some s ->
        Alcotest.(check bool)
          (Printf.sprintf "node %d cpu busy (%.3f)" node s.mean)
          true (s.mean > 0.05)
  done;
  match Probe.find_summary r.probe ~node:(-1) ~name:"event_heap" with
  | None -> Alcotest.fail "no event_heap gauge"
  | Some s -> Alcotest.(check bool) "heap nonempty" true (s.mean > 0.0)

(* --- latency decomposition --- *)

let test_decomposition_sums_to_latency () =
  let r = run 20000.0 in
  let d = r.decomposition in
  Alcotest.(check bool) "txs decomposed" true (d.samples > 1000);
  let sum =
    d.client_wire +. d.cpu_queue +. d.cpu_service +. d.mempool_wait
    +. d.nic_serialization +. d.consensus_wait
  in
  Alcotest.(check bool) "components sum to total" true
    (Float.abs (sum -. d.total) < 1e-9 *. Float.max 1.0 d.total);
  (* The decomposed population is the measured population (same window),
     so its mean must track the reported client latency within 5%. *)
  let mean = r.summary.latency_mean in
  Alcotest.(check bool)
    (Printf.sprintf "decomposition total %.4f ~ latency mean %.4f" d.total mean)
    true
    (Float.abs (d.total -. mean) /. mean < 0.05);
  Alcotest.(check bool) "all components non-negative" true
    (d.client_wire >= 0.0 && d.cpu_queue >= 0.0 && d.cpu_service >= 0.0
    && d.mempool_wait >= 0.0 && d.nic_serialization >= 0.0
    && d.consensus_wait >= 0.0)

let suite =
  [
    Alcotest.test_case "null sink disabled" `Quick test_null_disabled;
    Alcotest.test_case "ring order + wraparound" `Quick
      test_ring_order_and_wraparound;
    Alcotest.test_case "event JSON schema" `Quick test_event_json_schema;
    Alcotest.test_case "event JSON round trip" `Quick
      test_event_json_round_trip;
    Alcotest.test_case "jsonl sink" `Quick test_jsonl_sink;
    Alcotest.test_case "chrome sink valid JSON" `Quick
      test_chrome_sink_valid_json;
    Alcotest.test_case "chrome trace of a run" `Slow test_chrome_trace_of_run;
    Alcotest.test_case "spans correlate block lifecycle" `Slow
      test_spans_correlate_block_lifecycle;
    Alcotest.test_case "tracing does not perturb the run" `Slow
      test_tracing_does_not_perturb;
    Alcotest.test_case "probe gauges" `Quick test_probe_gauges;
    Alcotest.test_case "probe memory flat" `Quick test_probe_memory_flat;
    Alcotest.test_case "probe sees saturated CPUs" `Slow
      test_probe_saturated_run;
    Alcotest.test_case "decomposition sums to latency" `Slow
      test_decomposition_sums_to_latency;
  ]
