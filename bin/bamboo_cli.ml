(* Bamboo command-line interface.

   Subcommands:
     run         - simulate one configuration and print its metrics
     model       - print the analytic model's building blocks and curve
     experiment  - regenerate one paper table/figure (or "all")
     config      - print the default configuration as JSON
     check       - invariant oracle: "check fuzz", "check replay",
                   "check trace" and "check explore" (explore_cli.ml)
     metrics     - simulate one configuration and export its aggregate
                   perf counters/histograms (Prometheus text or JSON)
     cluster     - multi-process TCP deployment (cluster_cli.ml)
     lint        - AST-level determinism linter over the OCaml sources
   A JSON configuration file (--config) seeds any subcommand's settings;
   individual flags override it. Converters, file loading and the check
   flags the subcommands share live in cli.ml.

   Exit codes are uniform across subcommands: 0 = success and all
   invariants held; 1 = an invariant was violated (safety violation or
   inconsistent prefixes in "run", a failing scenario in "check",
   diverged rows in the bench harness, an error-severity lint finding);
   2 = usage or configuration error, including any flag value a
   converter rejects. *)

open Cmdliner

let config_file =
  Arg.(
    value
    & opt (some file) None
    & info [ "config" ] ~docv:"FILE" ~doc:"JSON configuration file (Table I parameters).")

let load_config = function
  | None -> Bamboo.Config.default
  | Some path -> Cli.load_json Bamboo.Config.of_json path

(* Flags shared by run/model; each is optional and overrides the file. *)
let protocol_t = Arg.(value & opt (some Cli.protocol) None & info [ "protocol"; "p" ] ~docv:"NAME")
let n_t = Arg.(value & opt (some int) None & info [ "n" ] ~docv:"REPLICAS")
let byz_t = Arg.(value & opt (some int) None & info [ "byz" ] ~docv:"COUNT" ~doc:"Number of Byzantine replicas.")
let strategy_t = Arg.(value & opt (some Cli.strategy) None & info [ "strategy" ] ~docv:"NAME" ~doc:"honest, silence or fork.")
let bsize_t = Arg.(value & opt (some int) None & info [ "bsize" ] ~docv:"TXS")
let psize_t = Arg.(value & opt (some int) None & info [ "psize" ] ~docv:"BYTES")
let delay_t = Arg.(value & opt (some float) None & info [ "delay" ] ~docv:"MS" ~doc:"Added network delay, milliseconds.")
let timeout_t = Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"MS" ~doc:"View timeout, milliseconds.")
let backoff_t = Arg.(value & opt (some float) None & info [ "backoff" ] ~docv:"FACTOR" ~doc:"Geometric view-timer backoff (>= 1).")
let runtime_t = Arg.(value & opt (some float) None & info [ "runtime" ] ~docv:"SECONDS")
let seed_t = Arg.(value & opt (some int) None & info [ "seed" ])

(* [jobs_conv] is [int] where {!Bamboo.Config.validate} judges the value, and
   bounded where the command uses it directly. *)
let jobs_arg jobs_conv =
  Arg.(
    value
    & opt (some jobs_conv) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for independent simulation cells (default: the \
           configuration's $(b,jobs) key, itself defaulting to the \
           machine's recommended domain count). Changes wall-clock time \
           only; experiment output is identical at any value.")

let positive_jobs_t = jobs_arg (Cli.at_least Arg.int 1)

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a structured event trace to $(docv).")

let trace_format_t =
  Arg.(
    value
    & opt (some Cli.trace_format) None
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
         {
           c with
           Bamboo.Config.faults =
             Cli.load_json Bamboo_faults.Schedule.of_json path;
         })

(* The effective configuration: the file, then the flags, validated once
   for every subcommand that takes them. *)
let validated config =
  match Bamboo.Config.validate config with
  | Ok config -> config
  | Error e ->
      Printf.eprintf "invalid configuration: %s\n" e;
      exit 2

let common_t =
  Term.(
    const validated
    $ (const override $ Term.(const load_config $ config_file) $ protocol_t
      $ n_t $ byz_t $ strategy_t $ bsize_t $ psize_t $ delay_t $ timeout_t
      $ backoff_t $ runtime_t $ seed_t $ jobs_arg Arg.int $ trace_t
      $ trace_format_t $ probe_interval_t $ faults_t))

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

(* The workload of [run] and [metrics]. A bad rate or client count is a
   usage error (exit 2), like an invalid configuration. *)
let workload_of ~config rate clients =
  try
    match (clients, rate) with
    | Some clients, _ -> Bamboo.Workload.closed_loop ~clients
    | None, Some rate -> Bamboo.Workload.open_loop ~rate ()
    | None, None ->
        let m = Bamboo.Model.build ~config in
        Bamboo.Workload.open_loop ~rate:(0.5 *. m.Bamboo.Model.saturation_rate) ()
  with Invalid_argument e ->
    Printf.eprintf "invalid workload: %s\n" e;
    exit 2

let run_cmd =
  let run config rate clients series =
    let workload = workload_of ~config rate clients in
    Format.printf "config: %a@.workload: %s@." Bamboo.Config.pp config
      (Bamboo.Workload.describe workload);
    let trace_oc, trace =
      match config.Bamboo.Config.trace_file with
      | None -> (None, Bamboo_obs.Trace.null)
      | Some path ->
          let oc = Cli.open_out_or_exit path in
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
    if d.Bamboo.Metrics.samples > 0 then
      Format.printf "%a@." Bamboo.Metrics.pp_decomposition d;
    (match r.Bamboo.Runtime.probe with
    | [] -> ()
    | probes ->
        Format.printf "probe gauges (mean / max):@.";
        List.iter
          (fun p -> Format.printf "  %a@." Bamboo.Runtime.pp_probe p)
          probes);
    if series then
      List.iter
        (fun (t, thr) -> Format.printf "  t=%5.1fs  %8.0f tx/s@." t thr)
        r.series;
    if r.any_violation || not r.consistent then exit 1
  in
  Cmd.v
    (Cmd.info "run" ~exits:Lint_cli.exits
       ~doc:"Simulate one configuration and print metrics.")
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
    let workload = workload_of ~config rate clients in
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
        Cli.write_file path rendered;
        Printf.eprintf "metrics written to %s\n" path);
    if r.Bamboo.Runtime.any_violation || not r.Bamboo.Runtime.consistent
    then exit 1
  in
  Cmd.v
    (Cmd.info "metrics" ~exits:Lint_cli.exits
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
    (Cmd.info "model" ~exits:Lint_cli.exits
       ~doc:"Print the Section V analytic model predictions.")
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
    (* Flag beats the configuration file's [jobs] key beats the default;
       the file's value is validated on load. *)
    let jobs =
      match jobs with
      | Some j -> j
      | None -> (load_config config_path).Bamboo.Config.jobs
    in
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
    (Cmd.info "experiment" ~exits:Lint_cli.exits
       ~doc:"Regenerate a paper table or figure.")
    Term.(const run $ name_t $ full_t $ config_file $ positive_jobs_t)

(* --- config --- *)

let config_cmd =
  let run config =
    print_endline
      (Bamboo_util.Json.to_string ~indent:true (Bamboo.Config.to_json config))
  in
  Cmd.v
    (Cmd.info "config" ~exits:Lint_cli.exits
       ~doc:"Print the effective configuration as JSON.")
    Term.(const run $ common_t)

(* --- check --- *)

let fuzz_cmd =
  let seed_t =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Root seed.")
  in
  let budget_t =
    Arg.(
      value
      & opt (Cli.at_least int 0) 50
      & info [ "budget" ] ~docv:"N" ~doc:"Number of scenarios to run.")
  in
  let out_t =
    Arg.(
      value
      & opt string "bamboo-reproducer.json"
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Where to write the shrunk reproducer on failure.")
  in
  let run seed budget jobs protocols opts wrap out =
    let jobs = Option.value jobs ~default:1 in
    let verdicts =
      Bamboo_check.Fuzz.fuzz ?wrap ~opts ~root_seed:seed ~budget ~jobs
        ~protocols ()
    in
    let failures = List.filter Bamboo_check.Fuzz.failed verdicts in
    List.iter
      (fun (v : Bamboo_check.Fuzz.verdict) ->
        let s = v.Bamboo_check.Fuzz.scenario in
        Printf.printf "%s\n" (Bamboo_check.Scenario.describe s);
        Cli.print_report s.Bamboo_check.Scenario.label v.Bamboo_check.Fuzz.report)
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
        Cli.write_json out (Bamboo_check.Fuzz.artifact_to_json m);
        Printf.printf "reproducer written to %s\n" out;
        exit 1
  in
  Cmd.v
    (Cmd.info "fuzz" ~exits:Lint_cli.exits
       ~doc:
         "Sample chaos scenarios deterministically from a root seed, run \
          them against the invariant oracle, shrink any failure to a \
          minimal reproducer. Output is byte-identical for the same seed, \
          budget and protocols at any --jobs value.")
    Term.(
      const run $ seed_t $ budget_t $ positive_jobs_t $ Cli.protocols_t
      $ Cli.opts_t $ Cli.wrap_t $ out_t)

let replay_cmd =
  let file_t =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Reproducer JSON written by check fuzz.")
  in
  let run file opts wrap =
    let (scenario, invariant), schedule =
      Cli.load_json
        (fun json ->
          Result.bind (Bamboo_check.Fuzz.artifact_of_json json) (fun a ->
              Result.map (fun s -> (a, s))
                (Bamboo_explore.Strategy.schedule_of_json json)))
        file
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
    Cli.print_report scenario.Bamboo_check.Scenario.label report;
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
    (Cmd.info "replay" ~exits:Lint_cli.exits
       ~doc:
         "Re-run a shrunk reproducer — a fuzzer artifact or an explore \
          counterexample with a recorded delivery schedule — and report \
          whether the recorded invariant violation occurs again (exit 1 \
          if it does).")
    Term.(const run $ file_t $ Cli.opts_t $ Cli.wrap_t)

let trace_cmd =
  let file_t =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "JSONL trace: a simulator run's (run --trace-format jsonl) or a \
             cluster's (cluster run's merged.jsonl).")
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
    let events, skipped = Bamboo_obs.Trace.read_jsonl file in
    if skipped > 0 then
      Printf.printf "skipped %d unparseable line(s)\n" skipped;
    Printf.printf "%d events\n" (List.length events);
    let report =
      Bamboo_check.Monitor.check_trace ~byz_no ?expect_commit_after:commit_after
        events
    in
    Cli.print_report (Filename.basename file) report;
    if not (Bamboo_check.Monitor.pass report) then exit 1
  in
  Cmd.v
    (Cmd.info "trace" ~exits:Lint_cli.exits
       ~doc:
         "Run the hash-keyed trace monitors (agreement, certification \
          uniqueness, vote safety, optional liveness) over any JSONL trace, \
          simulator or cluster; exit 1 on any violation.")
    Term.(const run $ file_t $ byz_no_t $ commit_after_t)

let check_cmd =
  let info =
    Cmd.info "check" ~exits:Lint_cli.exits
      ~doc:
        "Invariant oracle, deterministic chaos fuzzer and bounded model \
         checker (agreement, certification uniqueness, vote safety, \
         bounded liveness)."
  in
  Cmd.group info [ fuzz_cmd; replay_cmd; trace_cmd; Explore_cli.cmd ]

let lint_cmd =
  Cmd.v (Cmd.info "lint" ~exits:Lint_cli.exits ~doc:Lint_cli.doc) Lint_cli.term

let () =
  let doc = "Bamboo: prototyping and evaluation of chained-BFT protocols" in
  let info = Cmd.info "bamboo" ~exits:Lint_cli.exits ~version:"1.0.0" ~doc in
  match
    Cmd.eval_value
      (Cmd.group info
         [ run_cmd; model_cmd; experiment_cmd; config_cmd; check_cmd;
           metrics_cmd; Cluster_cli.cmd; lint_cmd ])
  with
  | Ok (`Ok ()) | Ok `Help | Ok `Version -> exit 0
  | Error _ -> exit 2
