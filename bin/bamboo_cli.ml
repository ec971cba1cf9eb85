(* Bamboo command-line interface.

   Subcommands:
     run         - simulate one configuration and print its metrics
     model       - print the analytic model's building blocks and curve
     experiment  - regenerate one paper table/figure (or "all")
     config      - print the default configuration as JSON
     check       - invariant fuzzer: "check fuzz" and "check replay"
     metrics     - simulate one configuration and export its aggregate
                   perf counters/histograms (Prometheus text or JSON)
     lint        - AST-level determinism linter over the OCaml sources
   A JSON configuration file (--config) seeds any subcommand's settings;
   individual flags override it.

   Exit codes are uniform across subcommands: 0 = success and all
   invariants held; 1 = an invariant was violated (safety violation or
   inconsistent prefixes in "run", a failing scenario in "check",
   diverged rows in the bench harness, an error-severity lint finding);
   2 = usage or configuration error. *)

open Cmdliner

let protocol_conv =
  let parse s =
    match Bamboo.Config.protocol_of_name s with
    | Ok p -> Ok p
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Bamboo.Config.protocol_name p))

let strategy_conv =
  let parse = function
    | "honest" -> Ok Bamboo.Config.Honest
    | "silence" -> Ok Bamboo.Config.Silence
    | "fork" -> Ok Bamboo.Config.Fork
    | s -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  let print fmt s =
    Format.pp_print_string fmt
      (match s with
      | Bamboo.Config.Honest -> "honest"
      | Bamboo.Config.Silence -> "silence"
      | Bamboo.Config.Fork -> "fork")
  in
  Arg.conv (parse, print)

let config_file =
  Arg.(
    value
    & opt (some file) None
    & info [ "config" ] ~docv:"FILE" ~doc:"JSON configuration file (Table I parameters).")

let read_file path =
  match open_in path with
  | exception Sys_error e ->
      Printf.eprintf "bamboo: %s\n" e;
      exit 2
  | ic ->
      let len = in_channel_length ic in
      let raw = really_input_string ic len in
      close_in ic;
      raw

let parse_json ~path raw =
  try Bamboo_util.Json.of_string raw
  with Bamboo_util.Json.Parse_error e ->
    Printf.eprintf "error in %s: invalid JSON: %s\n" path e;
    exit 2

let load_config = function
  | None -> Bamboo.Config.default
  | Some path -> (
      match Bamboo.Config.of_json (parse_json ~path (read_file path)) with
      | Ok c -> c
      | Error e ->
          Printf.eprintf "error in %s: %s\n" path e;
          exit 2)

(* Flags shared by run/model; each is optional and overrides the file. *)
let protocol_t = Arg.(value & opt (some protocol_conv) None & info [ "protocol"; "p" ] ~docv:"NAME")
let n_t = Arg.(value & opt (some int) None & info [ "n" ] ~docv:"REPLICAS")
let byz_t = Arg.(value & opt (some int) None & info [ "byz" ] ~docv:"COUNT" ~doc:"Number of Byzantine replicas.")
let strategy_t = Arg.(value & opt (some strategy_conv) None & info [ "strategy" ] ~docv:"NAME" ~doc:"honest, silence or fork.")
let bsize_t = Arg.(value & opt (some int) None & info [ "bsize" ] ~docv:"TXS")
let psize_t = Arg.(value & opt (some int) None & info [ "psize" ] ~docv:"BYTES")
let delay_t = Arg.(value & opt (some float) None & info [ "delay" ] ~docv:"MS" ~doc:"Added network delay, milliseconds.")
let timeout_t = Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"MS" ~doc:"View timeout, milliseconds.")
let backoff_t = Arg.(value & opt (some float) None & info [ "backoff" ] ~docv:"FACTOR" ~doc:"Geometric view-timer backoff (>= 1).")
let runtime_t = Arg.(value & opt (some float) None & info [ "runtime" ] ~docv:"SECONDS")
let seed_t = Arg.(value & opt (some int) None & info [ "seed" ])

let jobs_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for independent simulation cells (default: the \
           configuration's $(b,jobs) key, itself defaulting to the \
           machine's recommended domain count). Changes wall-clock time \
           only; experiment output is identical at any value.")

let trace_format_conv =
  let parse s =
    match Bamboo.Config.trace_format_of_name s with
    | Ok f -> Ok f
    | Error e -> Error (`Msg e)
  in
  Arg.conv
    ( parse,
      fun fmt f ->
        Format.pp_print_string fmt (Bamboo.Config.trace_format_name f) )

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a structured event trace to $(docv).")

let trace_format_t =
  Arg.(
    value
    & opt (some trace_format_conv) None
    & info [ "trace-format" ] ~docv:"FORMAT"
        ~doc:
          "Trace format: $(b,jsonl) (one JSON event per line) or \
           $(b,chrome) (trace_event JSON, opens in chrome://tracing or \
           Perfetto).")

let probe_interval_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "probe-interval" ] ~docv:"MS"
        ~doc:
          "Sample CPU/NIC queue depths and utilization every $(docv) \
           virtual milliseconds (0 disables probing).")

let faults_t =
  Arg.(
    value
    & opt (some file) None
    & info [ "faults" ] ~docv:"FILE"
        ~doc:
          "JSON fault schedule (a list of fault entries, the same shape as \
           the configuration's $(b,faults) section); replaces any schedule \
           from --config. See README \"Fault injection\".")

let load_faults path =
  match Bamboo_faults.Schedule.of_json (parse_json ~path (read_file path)) with
  | Ok s -> s
  | Error e ->
      Printf.eprintf "error in %s: %s\n" path e;
      exit 2

let override config protocol n byz strategy bsize psize delay timeout backoff
    runtime seed jobs trace trace_format probe_interval faults =
  let set v f config = match v with None -> config | Some v -> f config v in
  config
  |> set protocol (fun c protocol -> { c with Bamboo.Config.protocol })
  |> set n (fun c n -> { c with Bamboo.Config.n })
  |> set byz (fun c byz_no -> { c with Bamboo.Config.byz_no })
  |> set strategy (fun c strategy -> { c with Bamboo.Config.strategy })
  |> set bsize (fun c bsize -> { c with Bamboo.Config.bsize })
  |> set psize (fun c psize -> { c with Bamboo.Config.psize })
  |> set delay (fun c d -> { c with Bamboo.Config.extra_delay_mu = d /. 1000.0 })
  |> set timeout (fun c t -> { c with Bamboo.Config.timeout = t /. 1000.0 })
  |> set backoff (fun c backoff -> { c with Bamboo.Config.backoff })
  |> set runtime (fun c runtime -> { c with Bamboo.Config.runtime })
  |> set seed (fun c seed -> { c with Bamboo.Config.seed })
  |> set jobs (fun c jobs -> { c with Bamboo.Config.jobs })
  |> set trace (fun c f -> { c with Bamboo.Config.trace_file = Some f })
  |> set trace_format (fun c trace_format -> { c with Bamboo.Config.trace_format })
  |> set probe_interval (fun c p ->
         { c with Bamboo.Config.probe_interval = p /. 1000.0 })
  |> set faults (fun c path ->
         { c with Bamboo.Config.faults = load_faults path })

let common_t =
  Term.(
    const override $ Term.(const load_config $ config_file) $ protocol_t $ n_t
    $ byz_t $ strategy_t $ bsize_t $ psize_t $ delay_t $ timeout_t $ backoff_t
    $ runtime_t $ seed_t $ jobs_t $ trace_t $ trace_format_t $ probe_interval_t
    $ faults_t)

(* --- run --- *)

let rate_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "rate" ] ~docv:"TX/S"
        ~doc:"Open-loop arrival rate; defaults to 50% of the model's saturation point.")

let clients_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "clients" ] ~docv:"N" ~doc:"Closed-loop concurrency (overrides --rate).")

let series_t =
  Arg.(value & flag & info [ "series" ] ~doc:"Also print the committed-throughput time series.")

let run_cmd =
  let run config rate clients series =
    match Bamboo.Config.validate config with
    | Error e ->
        Printf.eprintf "invalid configuration: %s\n" e;
        exit 2
    | Ok config ->
        let workload =
          match clients with
          | Some clients -> Bamboo.Workload.closed_loop ~clients
          | None ->
              let rate =
                match rate with
                | Some r -> r
                | None ->
                    let m = Bamboo.Model.build ~config in
                    0.5 *. m.Bamboo.Model.saturation_rate
              in
              Bamboo.Workload.open_loop ~rate ()
        in
        Format.printf "config: %a@.workload: %s@." Bamboo.Config.pp config
          (Bamboo.Workload.describe workload);
        let trace_oc, trace =
          match config.Bamboo.Config.trace_file with
          | None -> (None, Bamboo_obs.Trace.null)
          | Some path ->
              let oc =
                try open_out path
                with Sys_error e ->
                  Printf.eprintf "cannot open trace file: %s\n" e;
                  exit 2
              in
              let t =
                match config.Bamboo.Config.trace_format with
                | Bamboo.Config.Jsonl -> Bamboo_obs.Trace.jsonl oc
                | Bamboo.Config.Chrome -> Bamboo_obs.Trace.chrome oc
              in
              (Some (path, oc), t)
        in
        let r = Bamboo.Runtime.run ~config ~workload ~trace () in
        (match trace_oc with
        | None -> ()
        | Some (path, oc) ->
            Bamboo_obs.Trace.close trace;
            close_out oc;
            Format.printf "trace written to %s (%s)@." path
              (Bamboo.Config.trace_format_name
                 config.Bamboo.Config.trace_format));
        let s = r.Bamboo.Runtime.summary in
        Format.printf "%a@." Bamboo.Metrics.pp_summary s;
        Format.printf
          "p50/p95/p99 latency: %.2f / %.2f / %.2f ms; views: %d; rejected: %d@."
          (s.latency_p50 *. 1000.0) (s.latency_p95 *. 1000.0)
          (s.latency_p99 *. 1000.0) s.views s.rejected_txs;
        Format.printf "consistent prefixes: %b; safety violations: %b@."
          r.consistent r.any_violation;
        Format.printf "cpu utilization per replica: %s@."
          (String.concat ", "
             (Array.to_list
                (Array.map
                   (fun u -> Printf.sprintf "%.0f%%" (100.0 *. u))
                   r.cpu_utilization)));
        Format.printf "simulator events: %d@." r.sim_events;
        let d = r.Bamboo.Runtime.decomposition in
        if d.Bamboo_obs.Latency.samples > 0 then
          Format.printf "latency decomposition: %a@."
            Bamboo_obs.Latency.pp_summary d;
        (match r.Bamboo.Runtime.probe with
        | [] -> ()
        | probes ->
            Format.printf "probe gauges (mean / max):@.";
            List.iter
              (fun p -> Format.printf "  %a@." Bamboo_obs.Probe.pp_summary p)
              probes);
        if series then
          List.iter
            (fun (t, thr) -> Format.printf "  t=%5.1fs  %8.0f tx/s@." t thr)
            r.series;
        if r.any_violation || not r.consistent then exit 1
  in
  Cmd.v (Cmd.info "run" ~doc:"Simulate one configuration and print metrics.")
    Term.(const run $ common_t $ rate_t $ clients_t $ series_t)

(* --- metrics --- *)

let metrics_format_t =
  Arg.(
    value
    & opt (enum [ ("prometheus", `Prometheus); ("json", `Json) ]) `Prometheus
    & info [ "format" ] ~docv:"FORMAT"
        ~doc:
          "Export format: $(b,prometheus) (text exposition, one sample per \
           line) or $(b,json) (the same snapshot as a JSON object).")

let metrics_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Write the export to $(docv) instead of stdout.")

let metrics_cmd =
  let run config rate clients format out =
    match Bamboo.Config.validate config with
    | Error e ->
        Printf.eprintf "invalid configuration: %s\n" e;
        exit 2
    | Ok config ->
        let workload =
          match clients with
          | Some clients -> Bamboo.Workload.closed_loop ~clients
          | None ->
              let rate =
                match rate with
                | Some r -> r
                | None ->
                    let m = Bamboo.Model.build ~config in
                    0.5 *. m.Bamboo.Model.saturation_rate
              in
              Bamboo.Workload.open_loop ~rate ()
        in
        let registry = Bamboo_metrics.Registry.create () in
        let r = Bamboo.Runtime.run ~config ~workload ~metrics:registry () in
        let snapshot = r.Bamboo.Runtime.metrics in
        let rendered =
          match format with
          | `Prometheus -> Bamboo_metrics.Snapshot.to_prometheus snapshot
          | `Json ->
              Bamboo_util.Json.to_string ~indent:true
                (Bamboo_metrics.Snapshot.to_json snapshot)
              ^ "\n"
        in
        (match out with
        | None -> print_string rendered
        | Some path ->
            let oc =
              try open_out path
              with Sys_error e ->
                Printf.eprintf "bamboo: cannot open output file: %s\n" e;
                exit 2
            in
            output_string oc rendered;
            close_out oc;
            Printf.eprintf "metrics written to %s\n" path);
        if r.Bamboo.Runtime.any_violation || not r.Bamboo.Runtime.consistent
        then exit 1
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Simulate one configuration and export the aggregate metrics \
          snapshot (counters, gauges, latency histograms).")
    Term.(
      const run $ common_t $ rate_t $ clients_t $ metrics_format_t
      $ metrics_out_t)

(* --- model --- *)

let model_cmd =
  let run config =
    let m = Bamboo.Model.build ~config in
    Format.printf "protocol: %s, n=%d, bsize=%d, psize=%d@."
      (Bamboo.Config.protocol_name config.Bamboo.Config.protocol)
      config.Bamboo.Config.n config.Bamboo.Config.bsize
      config.Bamboo.Config.psize;
    Format.printf
      "t_L=%.3fms t_CPU=%.3fms t_NIC=%.3fms t_Q=%.3fms t_s=%.3fms t_commit=%.3fms@."
      (m.t_l *. 1e3) (m.t_cpu *. 1e3) (m.t_nic *. 1e3) (m.t_q *. 1e3)
      (m.t_s *. 1e3) (m.t_commit *. 1e3);
    Format.printf "saturation: %.0f tx/s@." m.saturation_rate;
    List.iter
      (fun f ->
        let rate = f *. m.saturation_rate in
        match Bamboo.Model.latency m ~rate with
        | Some l -> Format.printf "  rate %8.0f tx/s -> latency %7.2f ms@." rate (l *. 1e3)
        | None -> ())
      [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99 ]
  in
  Cmd.v
    (Cmd.info "model" ~doc:"Print the Section V analytic model predictions.")
    Term.(const run $ common_t)

(* --- experiment --- *)

let experiment_cmd =
  let name_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:
            "Experiment name (table2, fig8..fig15, ablation_*, or 'all'). \
             See DESIGN.md for the index.")
  in
  let full_t =
    Arg.(value & flag & info [ "full" ] ~doc:"Paper-scale run durations.")
  in
  let run name full config_path jobs =
    let scale =
      if full then Bamboo.Experiments.Full else Bamboo.Experiments.Quick
    in
    (* Flag beats the configuration file's [jobs] key beats the default. *)
    let jobs =
      match jobs with
      | Some j -> j
      | None -> (load_config config_path).Bamboo.Config.jobs
    in
    if jobs < 1 then begin
      Printf.eprintf
        "bamboo: --jobs must be >= 1 (got %d); it counts worker domains\n"
        jobs;
      exit 2
    end;
    Bamboo.Experiments.set_jobs jobs;
    if name = "all" then Bamboo.Experiments.run_all ~scale ()
    else
      match Bamboo.Experiments.run_one ~scale name with
      | Ok () -> ()
      | Error e ->
          prerr_endline e;
          exit 2
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a paper table or figure.")
    Term.(const run $ name_t $ full_t $ config_file $ jobs_t)

(* --- config --- *)

let config_cmd =
  let run config =
    print_endline
      (Bamboo_util.Json.to_string ~indent:true (Bamboo.Config.to_json config))
  in
  Cmd.v
    (Cmd.info "config" ~doc:"Print the effective configuration as JSON.")
    Term.(const run $ common_t)

(* --- check --- *)

let protocols_t =
  let all =
    [
      Bamboo.Config.Hotstuff;
      Bamboo.Config.Twochain;
      Bamboo.Config.Streamlet;
      Bamboo.Config.Fasthotstuff;
    ]
  in
  Arg.(
    value
    & opt (list protocol_conv) all
    & info [ "protocols" ] ~docv:"NAMES"
        ~doc:"Comma-separated protocols to sample scenarios from.")

let recover_views_t =
  Arg.(
    value
    & opt int Bamboo_check.Monitor.default_opts.Bamboo_check.Monitor.recover_views
    & info [ "recover-views" ] ~docv:"VIEWS"
        ~doc:
          "Bounded-liveness budget: after the last fault heals, a commit \
           must land within $(docv) view timeouts.")

let break_voting_t =
  Arg.(
    value & flag
    & info [ "plant-broken-voting" ]
        ~doc:
          "Self-test of the oracle: plant a deliberately unsafe voting \
           rule (ignores the lock) in every replica so the agreement \
           monitor has a real violation to catch. Never use for \
           protocol measurements.")

let check_wrap break_voting =
  if break_voting then Some Bamboo_check.Fuzz.broken_voting_rule else None

let check_opts recover_views =
  if recover_views < 1 then begin
    Printf.eprintf "bamboo: --recover-views must be >= 1 (got %d)\n"
      recover_views;
    exit 2
  end;
  { Bamboo_check.Monitor.recover_views }

let print_report label (r : Bamboo_check.Monitor.report) =
  List.iter
    (fun ((inv : Bamboo_check.Monitor.invariant), reason) ->
      Printf.printf "  skip %s: %s\n"
        (Bamboo_check.Monitor.invariant_name inv)
        reason)
    r.Bamboo_check.Monitor.skipped;
  List.iter
    (fun (v : Bamboo_check.Monitor.violation) ->
      Printf.printf "  FAIL %s: %s\n"
        (Bamboo_check.Monitor.invariant_name v.Bamboo_check.Monitor.invariant)
        v.Bamboo_check.Monitor.detail)
    r.Bamboo_check.Monitor.violations;
  if Bamboo_check.Monitor.pass r then Printf.printf "  pass %s\n" label

let fuzz_cmd =
  let seed_t =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Root seed.")
  in
  let budget_t =
    Arg.(
      value & opt int 50
      & info [ "budget" ] ~docv:"N" ~doc:"Number of scenarios to run.")
  in
  let out_t =
    Arg.(
      value
      & opt string "bamboo-reproducer.json"
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Where to write the shrunk reproducer on failure.")
  in
  let run seed budget jobs protocols recover_views break_voting out =
    if budget < 0 then begin
      Printf.eprintf "bamboo: --budget must be >= 0 (got %d)\n" budget;
      exit 2
    end;
    let jobs = match jobs with Some j -> j | None -> 1 in
    if jobs < 1 then begin
      Printf.eprintf "bamboo: --jobs must be >= 1 (got %d)\n" jobs;
      exit 2
    end;
    if protocols = [] then begin
      Printf.eprintf "bamboo: --protocols must name at least one protocol\n";
      exit 2
    end;
    let opts = check_opts recover_views in
    let wrap = check_wrap break_voting in
    let verdicts =
      Bamboo_check.Fuzz.fuzz ?wrap ~opts ~root_seed:seed ~budget ~jobs
        ~protocols ()
    in
    let failures = List.filter Bamboo_check.Fuzz.failed verdicts in
    List.iter
      (fun (v : Bamboo_check.Fuzz.verdict) ->
        let s = v.Bamboo_check.Fuzz.scenario in
        Printf.printf "%s\n" (Bamboo_check.Scenario.describe s);
        print_report s.Bamboo_check.Scenario.label v.Bamboo_check.Fuzz.report)
      verdicts;
    Printf.printf
      "fuzz: root_seed=%d budget=%d protocols=%s \
       strategies=sampled(honest,silence,fork) -> %d passed, %d failed\n"
      seed budget
      (String.concat "," (List.map Bamboo.Config.protocol_name protocols))
      (List.length verdicts - List.length failures)
      (List.length failures);
    match failures with
    | [] -> ()
    | first :: _ ->
        let m = Bamboo_check.Fuzz.shrink ?wrap ~opts first in
        let s = m.Bamboo_check.Fuzz.scenario in
        Printf.printf
          "shrunk %s to %d fault event(s), n=%d, runtime=%.2fs (%d runs): %s\n"
          s.Bamboo_check.Scenario.label
          (List.length
             s.Bamboo_check.Scenario.config.Bamboo.Config.faults)
          s.Bamboo_check.Scenario.config.Bamboo.Config.n
          s.Bamboo_check.Scenario.config.Bamboo.Config.runtime
          m.Bamboo_check.Fuzz.runs m.Bamboo_check.Fuzz.detail;
        let oc =
          try open_out out
          with Sys_error e ->
            Printf.eprintf "bamboo: cannot write reproducer: %s\n" e;
            exit 2
        in
        output_string oc
          (Bamboo_util.Json.to_string ~indent:true
             (Bamboo_check.Fuzz.artifact_to_json m));
        output_char oc '\n';
        close_out oc;
        Printf.printf "reproducer written to %s\n" out;
        exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Sample chaos scenarios deterministically from a root seed, run \
          them against the invariant oracle, shrink any failure to a \
          minimal reproducer. Output is byte-identical for the same seed, \
          budget and protocols at any --jobs value.")
    Term.(
      const run $ seed_t $ budget_t $ jobs_t $ protocols_t $ recover_views_t
      $ break_voting_t $ out_t)

let replay_cmd =
  let file_t =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Reproducer JSON written by check fuzz.")
  in
  let run file recover_views break_voting =
    let opts = check_opts recover_views in
    let wrap = check_wrap break_voting in
    let json = parse_json ~path:file (read_file file) in
    let scenario, invariant =
      match Bamboo_check.Fuzz.artifact_of_json json with
      | Ok v -> v
      | Error e ->
          Printf.eprintf "error in %s: %s\n" file e;
          exit 2
    in
    let schedule =
      match Bamboo_explore.Strategy.schedule_of_json json with
      | Ok s -> s
      | Error e ->
          Printf.eprintf "error in %s: %s\n" file e;
          exit 2
    in
    Printf.printf "%s\n" (Bamboo_check.Scenario.describe scenario);
    let report =
      match schedule with
      | None ->
          (Bamboo_check.Fuzz.run_scenario ?wrap ~opts scenario)
            .Bamboo_check.Fuzz.report
      | Some sched ->
          let { Bamboo_explore.Strategy.window; explore_after; choices } =
            sched
          in
          Printf.printf
            "schedule: %d choice(s), window=%g, explore_after=%g\n"
            (List.length choices) window explore_after;
          let outcome =
            Bamboo_explore.Scheduler.replay ?wrap ~opts ~explore_after
              ~window ~choices scenario
          in
          outcome.Bamboo_explore.Scheduler.o_verdict.Bamboo_check.Fuzz.report
    in
    print_report scenario.Bamboo_check.Scenario.label report;
    let reproduced =
      List.exists
        (fun (viol : Bamboo_check.Monitor.violation) ->
          viol.Bamboo_check.Monitor.invariant = invariant)
        report.Bamboo_check.Monitor.violations
    in
    if reproduced then begin
      Printf.printf "reproduced: %s violation confirmed\n"
        (Bamboo_check.Monitor.invariant_name invariant);
      exit 1
    end
    else begin
      Printf.printf "did not reproduce the recorded %s violation\n"
        (Bamboo_check.Monitor.invariant_name invariant);
      if not (Bamboo_check.Monitor.pass report) then exit 1
    end
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-run a shrunk reproducer — a fuzzer artifact or an explore \
          counterexample with a recorded delivery schedule — and report \
          whether the recorded invariant violation occurs again (exit 1 \
          if it does).")
    Term.(const run $ file_t $ recover_views_t $ break_voting_t)

let trace_cmd =
  let file_t =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Merged JSONL trace (e.g. bamboo cluster run's merged.jsonl).")
  in
  let byz_no_t =
    Arg.(
      value & opt int 0
      & info [ "byz-no" ] ~docv:"N"
          ~doc:"Byzantine replica count; ids below N skip vote-safety checks.")
  in
  let commit_after_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "commit-after" ] ~docv:"SECONDS"
          ~doc:
            "Require at least one commit after this (epoch-relative) \
             timestamp.")
  in
  let run file byz_no commit_after =
    let events, skipped = Bamboo_cluster.Harness.read_trace_file file in
    if skipped > 0 then
      Printf.printf "skipped %d unparseable line(s)\n" skipped;
    Printf.printf "%d events\n" (List.length events);
    let report =
      Bamboo_check.Monitor.check_trace ~byz_no ?expect_commit_after:commit_after
        events
    in
    print_report (Filename.basename file) report;
    if not (Bamboo_check.Monitor.pass report) then exit 1
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the hash-keyed deployment-trace monitors (agreement, \
          certification uniqueness, vote safety, optional liveness) over a \
          JSONL trace file; exit 1 on any violation.")
    Term.(const run $ file_t $ byz_no_t $ commit_after_t)

let check_cmd =
  let info =
    Cmd.info "check"
      ~doc:
        "Invariant oracle, deterministic chaos fuzzer and bounded model \
         checker (agreement, certification uniqueness, vote safety, \
         bounded liveness)."
  in
  Cmd.group info [ fuzz_cmd; replay_cmd; trace_cmd; Bamboo_explore.Explore_cli.cmd ]

let () =
  let doc = "Bamboo: prototyping and evaluation of chained-BFT protocols" in
  let info = Cmd.info "bamboo" ~version:"1.0.0" ~doc in
  match
    Cmd.eval_value
      (Cmd.group info
         [ run_cmd; model_cmd; experiment_cmd; config_cmd; check_cmd;
           metrics_cmd; Bamboo_cluster.Cluster_cli.cmd; Lint_cli.cmd ])
  with
  | Ok (`Ok ()) | Ok `Help | Ok `Version -> exit 0
  | Error _ -> exit 2
