(* The [bamboo check explore] subcommand: bounded model checking of
   delivery schedules over the simulator (DFS + state hashing + sleep-set
   POR, or PCT randomized priorities). Exit codes: 0 no violation, 1 a
   violation was found and a replayable counterexample written, 2 usage
   error.

   Output discipline: every line is a pure function of the flags (never of
   --jobs or wall-clock), because CI diffs the output of parallel and
   sequential runs to enforce the determinism contract. *)

open Cmdliner
module Config = Bamboo.Config
module Monitor = Bamboo_check.Monitor
module Fuzz = Bamboo_check.Fuzz
module Scenario = Bamboo_check.Scenario
module Schedule = Bamboo_faults.Schedule
module Scheduler = Bamboo_explore.Scheduler
module Strategy = Bamboo_explore.Strategy

let strategy_t =
  Arg.(
    value
    & opt (enum [ ("dfs", `Dfs); ("pct", `Pct) ]) `Dfs
    & info [ "strategy" ] ~docv:"NAME"
        ~doc:
          "Exploration strategy: $(b,dfs) (exhaustive bounded DFS with \
           state hashing and sleep-set POR) or $(b,pct) (randomized \
           priority schedules).")

let n_t =
  Arg.(
    value & opt int 4
    & info [ "n" ] ~docv:"N" ~doc:"Cluster size of the explored cell.")

let byz_t =
  Arg.(
    value & opt int 0
    & info [ "byz" ] ~docv:"N" ~doc:"Byzantine replica count.")

let adversary_t =
  Arg.(
    value & opt Cli.strategy Config.Honest
    & info [ "adversary" ] ~docv:"NAME"
        ~doc:"Byzantine strategy: honest, silence or fork.")

let horizon_t =
  Arg.(
    value & opt float 0.6
    & info [ "horizon" ] ~docv:"SECONDS"
        ~doc:
          "Virtual runtime of each explored execution. Must leave the \
           bounded-liveness monitor its recovery budget \
           (--recover-views view timeouts).")

let timeout_t =
  Arg.(
    value & opt float 0.05
    & info [ "timeout" ] ~docv:"SECONDS" ~doc:"View timeout of the cell.")

let window_t =
  Arg.(
    value
    & opt (Cli.at_least float 0.0) 1e-4
    & info [ "window" ] ~docv:"SECONDS"
        ~doc:
          "Commutativity window: deliveries within $(docv) of the \
           earliest pending one are concurrently deliverable and their \
           order is explored.")

let explore_after_t =
  Arg.(
    value & opt (Cli.at_least float 0.0) 0.0
    & info [ "explore-after" ] ~docv:"SECONDS"
        ~doc:
          "Scope the branching to decisions at or after $(docv): earlier \
           deliveries take the natural order and cost no depth budget. \
           Use to focus the search on an interesting region, e.g. a \
           partition boundary.")

let depth_t =
  Arg.(
    value
    & opt (Cli.at_least int 1) 6
    & info [ "depth" ] ~docv:"N"
        ~doc:
          "Decision-depth bound: each execution records at most $(docv) \
           scheduling decisions; beyond that it runs to the horizon in \
           default order.")

let max_runs_t =
  Arg.(
    value
    & opt (Cli.at_least int 1) 5000
    & info [ "max-runs" ] ~docv:"N"
        ~doc:
          "Execution budget per protocol. DFS that drains its frontier \
           within the budget has exhausted the bounded space.")

let seed_t =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"SEED" ~doc:"Root seed for PCT schedules.")

let pct_d_t =
  Arg.(
    value & opt (Cli.at_least int 0) 3
    & info [ "pct-d" ] ~docv:"D"
        ~doc:"Priority-change points per PCT schedule.")

let jobs_t =
  Arg.(
    value
    & opt (Cli.at_least int 1) 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel re-execution. Never affects \
           results: state counts and verdicts are byte-identical at any \
           value.")

let no_por_t =
  Arg.(
    value & flag
    & info [ "no-por" ]
        ~doc:
          "Brute-force baseline (DFS only): disable state-hash \
           deduplication and sleep-set partial-order reduction, for \
           measuring the reduction itself.")

(* "AT:UNTIL:ID[,ID...]" — isolate the listed replicas from the rest of
   the cluster during [AT, UNTIL). *)
let partition_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ at; until; ids ] -> (
        match
          ( float_of_string_opt at,
            float_of_string_opt until,
            String.split_on_char ',' ids )
        with
        | Some at, Some until, ids when ids <> [] -> (
            match
              List.map int_of_string_opt ids |> List.partition Option.is_some
            with
            | some, [] ->
                Ok
                  {
                    Schedule.at;
                    until = Some until;
                    spec =
                      Schedule.Partition
                        { a = List.filter_map Fun.id some; b = [] };
                  }
            | _ -> Error (`Msg (Printf.sprintf "bad replica ids in %S" s)))
        | _ -> Error (`Msg (Printf.sprintf "bad partition spec %S" s)))
    | _ ->
        Error
          (`Msg
             (Printf.sprintf "partition spec %S is not \"AT:UNTIL:IDS\"" s))
  in
  let print fmt (e : Schedule.entry) =
    match e.Schedule.spec with
    | Schedule.Partition { a; _ } ->
        Format.fprintf fmt "%g:%g:%s" e.Schedule.at
          (Option.value ~default:0.0 e.Schedule.until)
          (String.concat "," (List.map string_of_int a))
    | _ -> ()
  in
  Arg.conv (parse, print)

let partitions_t =
  Arg.(
    value
    & opt_all partition_conv []
    & info [ "partition" ] ~docv:"AT:UNTIL:IDS"
        ~doc:
          "Isolate replicas $(i,IDS) (comma-separated) from the rest of \
           the cluster during [$(i,AT), $(i,UNTIL)) virtual seconds. \
           Repeatable. Partitions drop messages, which makes deeper \
           schedule-dependent divergence (stale certificates, forks) \
           reachable in the explored cell.")

let out_t =
  Arg.(
    value
    & opt string "bamboo-explore-counterexample.json"
    & info [ "out" ] ~docv:"FILE"
        ~doc:
          "Where to write the shrunk, replayable counterexample on \
           violation.")

let pp_stats proto strategy (st : Strategy.stats) verdict =
  let strat_fields =
    match strategy with
    | `Dfs ->
        Printf.sprintf
          "states=%d pruned_sleep=%d pruned_visited=%d sleep_stops=%d \
           frontier_peak=%d exhausted=%s"
          st.Strategy.states st.Strategy.pruned_sleep
          st.Strategy.pruned_visited st.Strategy.sleep_stops
          st.Strategy.frontier_peak
          (if st.Strategy.exhausted then "yes" else "no")
    | `Pct -> "exhausted=no"
  in
  Printf.printf "explore[%s]: runs=%d decisions=%d %s verdict=%s\n"
    (Config.protocol_name proto)
    st.Strategy.runs st.Strategy.decisions strat_fields verdict

let run strategy protocols n byz adversary horizon timeout window
    explore_after depth max_runs seed pct_d jobs no_por opts wrap partitions
    out =
  let strategy_name = match strategy with `Dfs -> "dfs" | `Pct -> "pct" in
  Printf.printf
    "explore: strategy=%s protocols=%s n=%d byz=%d adversary=%s \
     window=%g explore_after=%g depth=%d max_runs=%d horizon=%g timeout=%g \
     seed=%d por=%s partitions=%d\n"
    strategy_name
    (String.concat "," (List.map Config.protocol_name protocols))
    n byz
    (Config.strategy_name adversary)
    window explore_after depth max_runs
    horizon timeout seed
    (if no_por then "off" else "on")
    (List.length partitions);
  let first_cex = ref None in
  List.iter
    (fun protocol ->
      let scenario =
        try
          Scheduler.scenario ~faults:partitions ~protocol ~n ~byz_no:byz
            ~strategy:adversary ~horizon ~timeout ()
        with Invalid_argument e ->
          Printf.eprintf "bamboo: %s\n" e;
          exit 2
      in
      let stats, cex =
        match strategy with
        | `Dfs ->
            Strategy.dfs ?wrap ~opts ~por:(not no_por) ~explore_after
              ~window ~max_decisions:depth ~max_runs ~jobs scenario
        | `Pct ->
            Strategy.pct ?wrap ~opts ~explore_after ~window
              ~max_decisions:depth ~max_runs ~d:pct_d ~root_seed:seed ~jobs
              scenario
      in
      let verdict =
        match cex with
        | None -> "pass"
        | Some c ->
            Monitor.invariant_name
              c.Strategy.c_minimized.Fuzz.invariant
      in
      pp_stats protocol strategy stats verdict;
      match cex with
      | Some c when Option.is_none !first_cex -> first_cex := Some c
      | Some _ | None -> ())
    protocols;
  match !first_cex with
  | None ->
      Printf.printf "explore: %d protocol(s) explored, no violations\n"
        (List.length protocols)
  | Some c ->
      let m = c.Strategy.c_minimized in
      Printf.printf
        "explore: %s violation; shrunk schedule to %d choice(s), \
         runtime=%.2fs (%d replays): %s\n"
        (Monitor.invariant_name m.Fuzz.invariant)
        (List.length c.Strategy.c_choices)
        m.Fuzz.scenario.Scenario.config.Config.runtime c.Strategy.c_shrink_runs
        m.Fuzz.detail;
      Cli.write_json out (Strategy.counterexample_to_json c);
      Printf.printf "counterexample written to %s\n" out;
      exit 1

let cmd =
  Cmd.v
    (Cmd.info "explore" ~exits:Lint_cli.exits
       ~doc:
         "Bounded model checking of message-delivery schedules: enumerate \
          (DFS with state hashing and sleep-set POR) or randomize (PCT) \
          the order of concurrently deliverable messages, checking every \
          execution against the invariant oracle. Exit 0 if no violation \
          was found, 1 on a violation (a replayable counterexample is \
          written), 2 on usage errors.")
    Term.(
      const run $ strategy_t $ Cli.protocols_t $ n_t $ byz_t $ adversary_t
      $ horizon_t $ timeout_t $ window_t $ explore_after_t $ depth_t
      $ max_runs_t $ seed_t $ pct_d_t $ jobs_t $ no_por_t $ Cli.opts_t
      $ Cli.wrap_t $ partitions_t $ out_t)
