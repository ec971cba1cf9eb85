(* The [bamboo cluster] command group: [run] orchestrates an n-process
   TCP deployment with chaos, [node] is the (internal) child entry point.
   Both are subcommands of the one [bamboo] binary because
   [Harness.spawn_node] re-executes [Sys.executable_name] with
   [cluster node] arguments. *)

module Config = Bamboo.Config
module Schedule = Bamboo_faults.Schedule
module Harness = Bamboo_cluster.Harness
open Cmdliner

(* --- cluster node (internal child entry point) --- *)

let node_run self config_path base_port client_port epoch trace summary =
  let config = Cli.load_json Config.of_json config_path in
  Harness.run_node ~config ~self ~base_port ~client_port ~epoch
    ~trace_path:trace ~summary_path:summary

let node_cmd =
  let self =
    Arg.(
      required
      & opt (some int) None
      & info [ "self" ] ~docv:"ID" ~doc:"Replica id of this process.")
  in
  let config =
    Arg.(
      required
      & opt (some string) None
      & info [ "config" ] ~docv:"FILE" ~doc:"Configuration JSON.")
  in
  let base_port =
    Arg.(
      value
      & opt int Harness.default_base_port
      & info [ "base-port" ] ~docv:"PORT"
          ~doc:"Consensus TCP port of replica 0; replica $(i,i) uses PORT+i.")
  in
  let client_port =
    Arg.(
      required
      & opt (some int) None
      & info [ "client-port" ] ~docv:"PORT" ~doc:"HTTP ingest port.")
  in
  let epoch =
    Arg.(
      required
      & opt (some float) None
      & info [ "epoch" ] ~docv:"UNIX_TS"
          ~doc:"Shared trace epoch (Unix seconds).")
  in
  let trace =
    Arg.(
      required
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE" ~doc:"JSONL trace output path.")
  in
  let summary =
    Arg.(
      required
      & opt (some string) None
      & info [ "summary" ] ~docv:"FILE" ~doc:"JSON summary output path.")
  in
  Cmd.v
    (Cmd.info "node" ~exits:Cli.exits
       ~doc:
         "(internal) Run one replica process; spawned by $(b,bamboo cluster \
          run).")
    Term.(
      const node_run $ self $ config $ base_port $ client_port $ epoch $ trace
      $ summary)

(* --- cluster run (parent orchestrator) --- *)

let cluster_run n protocol bsize memsize timeout duration rate base_port
    client_port_base faults_path outdir seed health_timeout =
  let faults =
    match faults_path with
    | None -> Schedule.empty
    | Some path -> Cli.load_json Schedule.of_json path
  in
  let config =
    {
      Config.default with
      protocol;
      n;
      bsize;
      memsize;
      timeout = timeout /. 1000.0;
      seed;
      runtime = duration;
    }
  in
  let config =
    match Config.validate config with
    | Ok c -> c
    | Error e ->
        prerr_endline e;
        exit 2
  in
  let client_port_base =
    match client_port_base with
    | Some p -> p
    | None -> base_port + Harness.client_port_offset
  in
  let log msg = Printf.printf "cluster: %s\n%!" msg in
  match
    Harness.run_cluster ~config ~faults ~duration ~rate ~base_port
      ~client_port_base ~outdir ~health_timeout_s:health_timeout ~log
  with
  | Error e ->
      prerr_endline e;
      exit 2
  | Ok o ->
      Printf.printf
        "cluster: %d commits, %d txs committed, swarm %d sent / %d accepted \
         / %d shed / %d failed\n"
        o.Harness.o_commits o.Harness.o_committed_txs o.Harness.o_swarm_sent
        o.Harness.o_swarm_accepted o.Harness.o_swarm_shed
        o.Harness.o_swarm_failed;
      if o.Harness.o_kills > 0 then
        Printf.printf
          "cluster: %d kills, %d restarts, %d transport reconnects, \
           catchup_ok=%b\n"
          o.Harness.o_kills o.Harness.o_restarts o.Harness.o_reconnects
          o.Harness.o_catchup_ok;
      if o.Harness.o_skipped_lines > 0 then
        Printf.printf "cluster: skipped %d torn/unparseable trace lines\n"
          o.Harness.o_skipped_lines;
      Cli.print_violations o.Harness.o_report;
      Printf.printf "cluster: summary %s\ncluster: merged trace %s\n%!"
        o.Harness.o_summary_path o.Harness.o_merged_path;
      if Harness.outcome_pass o then print_endline "cluster: PASS"
      else begin
        print_endline "cluster: FAIL";
        exit 1
      end

let run_cmd =
  let n =
    Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc:"Cluster size.")
  in
  let protocol =
    Arg.(
      value
      & opt Cli.protocol Config.Hotstuff
      & info [ "protocol" ] ~docv:"NAME"
          ~doc:"hotstuff|twochain|streamlet|fasthotstuff.")
  in
  let bsize =
    Arg.(
      value & opt int 100
      & info [ "bsize" ] ~docv:"TXS" ~doc:"Transactions per block.")
  in
  let memsize =
    Arg.(
      value & opt int 20000
      & info [ "memsize" ] ~docv:"TXS"
          ~doc:"Mempool capacity (admission control sheds above this).")
  in
  let timeout =
    Arg.(
      value & opt float 200.0
      & info [ "timeout" ] ~docv:"MS" ~doc:"View timeout, milliseconds.")
  in
  let duration =
    Arg.(
      value & opt float 20.0
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Wall-clock run length.")
  in
  let rate =
    Arg.(
      value & opt float 500.0
      & info [ "rate" ] ~docv:"TX/S"
          ~doc:"Aggregate open-loop client rate across all nodes.")
  in
  let base_port =
    Arg.(
      value
      & opt int Harness.default_base_port
      & info [ "base-port" ] ~docv:"PORT"
          ~doc:"Consensus TCP port of replica 0; replica $(i,i) uses PORT+i.")
  in
  let client_port_base =
    Arg.(
      value
      & opt (some int) None
      & info [ "client-port-base" ] ~docv:"PORT"
          ~doc:
            "HTTP ingest port of replica 0 (default: base-port + 1000); \
             replica $(i,i) uses PORT+i.")
  in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"FILE"
          ~doc:
            "Fault schedule JSON (crash entries only): $(b,at) kills the \
             node's process with SIGKILL, $(b,until) restarts it.")
  in
  let outdir =
    Arg.(
      value
      & opt string "cluster-out"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Output directory: traces, logs, summaries, merged trace.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Client seed.")
  in
  let health_timeout =
    Arg.(
      value & opt float 15.0
      & info [ "health-timeout" ] ~docv:"SECONDS"
          ~doc:"Startup health-check deadline.")
  in
  Cmd.v
    (Cmd.info "run" ~exits:Cli.exits
       ~doc:
         "Deploy an n-process TCP cluster on loopback, drive it with an \
          open-loop client swarm, execute a process-level fault schedule, \
          and check the merged trace. Exits 0 when all invariants hold and \
          the cluster survived the chaos, 1 otherwise, 2 on setup errors.")
    Term.(
      const cluster_run $ n $ protocol $ bsize $ memsize $ timeout $ duration
      $ rate $ base_port $ client_port_base $ faults $ outdir $ seed
      $ health_timeout)

let cmd =
  Cmd.group
    (Cmd.info "cluster" ~exits:Cli.exits
       ~doc:
         "Multi-process TCP cluster deployment: spawn, load, kill, restart, \
          verify.")
    [ run_cmd; node_cmd ]
