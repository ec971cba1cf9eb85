(* Multi-process cluster deployment harness (the chaos-survivable
   "cluster plane" of the resilient-TCP work).

   Two halves, both reached through the [bamboo cluster] CLI:

   - {!run_node} is the child-process entry point: one replica over the
     TCP transport behind the {!Host} HTTP front end, a JSONL consensus
     trace with a shared epoch, and the host's JSON summary written on
     graceful SIGTERM.

   - {!run_cluster} is the parent orchestrator: it spawns n node
     processes on loopback, drives them with an open-loop client swarm,
     executes a process-level fault schedule (SIGKILL, then restart
     reusing the [bamboo_faults] Crash JSON shape), merges the per-node
     traces post-hoc, and runs the {!Bamboo_check.Monitor.check_trace}
     invariants over the merged stream. *)

(* The whole module is wall-clock territory: it exists to exercise real
   sockets, real processes and real signals, so ambient time, process
   ids and the filesystem are the point, not an accident. *)
[@@@lint.allow "no-ambient-nondeterminism"]

module Config = Bamboo.Config
module Trace = Bamboo_obs.Trace
module Monitor = Bamboo_check.Monitor
module Schedule = Bamboo_faults.Schedule
module Json = Bamboo_util.Json
module Http = Bamboo_network.Http
module Tcp = Bamboo_network.Tcp_transport
module Tcp_host = Host.Make (Bamboo.Threaded_runtime.Make_batched (Tcp))

let default_base_port = 7400

let client_port_offset = 1000
(* Client HTTP endpoint of node [i] defaults to [base_port +
   client_port_offset + i]; consensus TCP is at [base_port + i]. *)

let swarm_client_base = 1000
(* Client ids used by the swarm: node [i]'s generator submits as client
   [swarm_client_base + i], so tx ids never collide across nodes. *)

(* ------------------------------------------------------------------ *)
(* Small shared helpers                                               *)
(* ------------------------------------------------------------------ *)

let mkdir_p path =
  let rec go p =
    if String.length p > 0 && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

let write_json_file path json =
  let oc = open_out path in
  output_string oc (Json.to_string ~indent:true json);
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Child: one replica process                                         *)
(* ------------------------------------------------------------------ *)

let run_node ~config ~self ~base_port ~client_port ~epoch ~trace_path
    ~summary_path =
  let n = config.Config.n in
  if self < 0 || self >= n then invalid_arg "run_node: self out of range";
  let addresses = Tcp.loopback_addresses ~n ~base_port in
  let endpoint = Tcp.create ~self ~addresses () in
  let trace_oc = open_out trace_path in
  let until ~port:_ =
    let stop_requested = Atomic.make false in
    let request_stop _ = Atomic.set stop_requested true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    while not (Atomic.get stop_requested) do
      Thread.delay 0.05
    done
  in
  let transport () =
    let st = Tcp.stats endpoint in
    Json.Obj
      [
        ("sends", Json.Int st.Tcp.sends);
        ("dropped_full", Json.Int st.Tcp.dropped_full);
        ("reconnects", Json.Int st.Tcp.reconnects);
        ("conn_failures", Json.Int st.Tcp.conn_failures);
        ("recv_msgs", Json.Int st.Tcp.recv_msgs);
        ("recv_dropped", Json.Int st.Tcp.recv_dropped);
        ("peak_depth", Json.Int st.Tcp.peak_depth);
      ]
  in
  let summary =
    Tcp_host.serve ~traces:[| Trace.jsonl trace_oc |] ~epoch
      ~publish:(Tcp.publish_metrics endpoint) ~config ~owned:[| self |]
      ~endpoints:[| endpoint |] ~port:client_port ~until ~transport ()
  in
  close_out trace_oc;
  write_json_file summary_path summary

(* ------------------------------------------------------------------ *)
(* Parent: orchestration                                              *)
(* ------------------------------------------------------------------ *)

type child = { node : int; mutable pid : int; mutable segment : int }

type fault_action = { fa_ts : float; fa_node : int; fa_restart : bool }
(** One step of the compiled process-fault timeline, [fa_ts] seconds
    after the epoch. [fa_restart = false] is a SIGKILL. *)

type outcome = {
  o_report : Monitor.report;
  o_commits : int;  (** Commit events in the merged trace. *)
  o_committed_txs : int;  (** Max committed-tx count over node summaries. *)
  o_reconnects : int;  (** Summed over node summaries. *)
  o_kills : int;
  o_restarts : int;
  o_catchup_ok : bool;
      (** Every restarted node logged a commit after its restart. *)
  o_swarm_sent : int;
  o_swarm_accepted : int;
  o_swarm_shed : int;
  o_swarm_failed : int;
  o_skipped_lines : int;
  o_merged_path : string;
  o_summary_path : string;
}

let spawn_node ~outdir ~config_path ~base_port ~client_port_base ~epoch ~node
    ~segment =
  let trace =
    Filename.concat outdir (Printf.sprintf "trace-%d-%d.jsonl" node segment)
  in
  let summary = Filename.concat outdir (Printf.sprintf "summary-%d.json" node) in
  let log = Filename.concat outdir (Printf.sprintf "node-%d.log" node) in
  let log_fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let exe = Sys.executable_name in
  let args =
    [|
      exe;
      "cluster";
      "node";
      "--self";
      string_of_int node;
      "--config";
      config_path;
      "--base-port";
      string_of_int base_port;
      "--client-port";
      string_of_int (client_port_base + node);
      "--epoch";
      Printf.sprintf "%.6f" epoch;
      "--trace";
      trace;
      "--summary";
      summary;
    |]
  in
  let pid = Unix.create_process exe args devnull log_fd log_fd in
  Unix.close log_fd;
  Unix.close devnull;
  pid

let wait_healthy ~client_port_base ~n ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec poll node =
    if node >= n then true
    else
      let up =
        match
          Http.request ~timeout_s:0.5 ~host:"127.0.0.1"
            ~port:(client_port_base + node) ~meth:"GET" ~path:"/health" ()
        with
        | Ok { Http.status = 200; _ } -> true
        | Ok _ | Error _ -> false
      in
      if up then poll (node + 1)
      else if Unix.gettimeofday () > deadline then false
      else begin
        Thread.delay 0.1;
        poll node
      end
  in
  poll 0

(** Compile a [bamboo_faults] schedule into the process-fault timeline.
    Only [Crash] entries are meaningful at the process level; anything
    else is an error (the simulator handles those). *)
let compile_faults ~n ~duration (schedule : Schedule.t) :
    (fault_action list, string) result =
  let rec go acc = function
    | [] ->
        Ok
          (List.stable_sort
             (fun a b -> Float.compare a.fa_ts b.fa_ts)
             (List.rev acc))
    | { Schedule.at; until; spec = Schedule.Crash { node } } :: rest ->
        if node < 0 || node >= n then
          Error (Printf.sprintf "fault schedule: node %d out of range" node)
        else if at >= duration then
          Error
            (Printf.sprintf "fault schedule: kill at %.1fs is past the %.1fs run"
               at duration)
        else
          let acc = { fa_ts = at; fa_node = node; fa_restart = false } :: acc in
          let acc =
            match until with
            | Some u when u < duration ->
                { fa_ts = u; fa_node = node; fa_restart = true } :: acc
            | Some _ | None -> acc
          in
          go acc rest
    | { Schedule.spec; _ } :: _ ->
        Error
          (Printf.sprintf
             "fault schedule: %s is not a process-level fault; only crash \
              entries apply to bamboo cluster"
             (Schedule.spec_name spec))
  in
  go [] schedule

let reap pid =
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let terminate_children children ~grace_s =
  Array.iter
    (fun c -> try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ())
    children;
  let deadline = Unix.gettimeofday () +. grace_s in
  let pending = ref (Array.to_list (Array.map (fun c -> c.pid) children)) in
  while
    (match !pending with [] -> false | _ -> true)
    && Unix.gettimeofday () < deadline
  do
    pending :=
      List.filter
        (fun pid ->
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> true
          | _ -> false
          | exception Unix.Unix_error _ -> false)
        !pending;
    match !pending with [] -> () | _ -> Thread.delay 0.05
  done;
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !pending

(* Merge per-node JSONL traces: tolerant parse, synthetic
   Fault_inject/Fault_heal markers at the observed kill/restart times
   (restart heals carry {!Monitor.restart_arg}: the process lost its
   vote history), then a stable (ts, node, seq) sort and a global
   re-sequencing. *)
let merge_traces ~outdir ~timeline =
  let files =
    Sys.readdir outdir
    |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 6
           && String.equal (String.sub f 0 6) "trace-"
           && Filename.check_suffix f ".jsonl")
    |> List.sort String.compare
  in
  let skipped = ref 0 in
  let events =
    List.concat_map
      (fun f ->
        let evs, sk = Trace.read_jsonl (Filename.concat outdir f) in
        skipped := !skipped + sk;
        evs)
      files
  in
  let synthetic =
    List.map
      (fun a ->
        {
          Trace.seq = 0;
          ts = a.fa_ts;
          node = a.fa_node;
          view = 0;
          kind = (if a.fa_restart then Trace.Fault_heal else Trace.Fault_inject);
          span = 0;
          args =
            ("fault", Json.String "crash")
            :: (if a.fa_restart then [ Monitor.restart_arg ] else []);
        })
      timeline
  in
  let merged = List.stable_sort Trace.chronological (events @ synthetic) in
  let merged = List.mapi (fun i e -> { e with Trace.seq = i }) merged in
  (merged, !skipped)

let summary_reconnects ~outdir ~n =
  let total = ref 0 in
  let committed = ref 0 in
  for node = 0 to n - 1 do
    let path = Filename.concat outdir (Printf.sprintf "summary-%d.json" node) in
    if Sys.file_exists path then begin
      let ic = open_in path in
      let len = in_channel_length ic in
      let raw = really_input_string ic len in
      close_in ic;
      match Json.of_string raw with
      | exception Json.Parse_error _ -> ()
      | j -> (
          (try
             total :=
               !total
               + Json.to_int (Json.member "reconnects" (Json.member "transport" j))
           with Invalid_argument _ -> ());
          try
            let c = Json.to_int (Json.member "committed_txs" j) in
            if c > !committed then committed := c
          with Invalid_argument _ -> ())
    end
  done;
  (!total, !committed)

let run_cluster ~config ~faults ~duration ~rate ~base_port ~client_port_base
    ~outdir ~health_timeout_s ~log =
  let n = config.Config.n in
  match compile_faults ~n ~duration faults with
  | Error e -> Error e
  | Ok timeline_plan ->
      mkdir_p outdir;
      let config_path = Filename.concat outdir "config.json" in
      write_json_file config_path
        (Config.to_json { config with Config.faults = Schedule.empty });
      let epoch = Unix.gettimeofday () in
      let children =
        Array.init n (fun node ->
            {
              node;
              segment = 0;
              pid =
                spawn_node ~outdir ~config_path ~base_port ~client_port_base
                  ~epoch ~node ~segment:0;
            })
      in
      if not (wait_healthy ~client_port_base ~n ~timeout_s:health_timeout_s)
      then begin
        terminate_children children ~grace_s:2.0;
        Error "cluster failed to become healthy within the startup timeout"
      end
      else begin
        log (Printf.sprintf "all %d nodes healthy; driving %.0f tx/s for %.0fs"
               n rate duration);
        let stop = Atomic.make false in
        let sent = Atomic.make 0 in
        let ok = Atomic.make 0 in
        let shed = Atomic.make 0 in
        let failed = Atomic.make 0 in
        let swarm_worker node =
          let rng = Bamboo_util.Rng.create ~seed:(config.Config.seed + node) in
          let per_node_rate = rate /. float_of_int n in
          let seq = ref 0 in
          let next = ref (Unix.gettimeofday ()) in
          while not (Atomic.get stop) do
            let now = Unix.gettimeofday () in
            if now < !next then Thread.delay (Float.min 0.01 (!next -. now))
            else begin
              (* Open-loop Poisson arrivals: exponential gaps, never
                 paused by slow or dead servers. *)
              let gap =
                -.Stdlib.log (1.0 -. Bamboo_util.Rng.float rng 1.0)
                /. per_node_rate
              in
              next := !next +. gap;
              let s = !seq in
              incr seq;
              let key = Printf.sprintf "k%d-%d" node (s mod 64) in
              let value = Printf.sprintf "v%d" s in
              let body =
                Printf.sprintf "P%d:%s%s" (String.length key) key value
              in
              let path =
                Printf.sprintf "/tx?client=%d&seq=%d" (swarm_client_base + node)
                  s
              in
              Atomic.incr sent;
              match
                Http.request ~body ~timeout_s:0.5 ~host:"127.0.0.1"
                  ~port:(client_port_base + node) ~meth:"POST" ~path ()
              with
              | Ok { Http.status = 200; _ } -> Atomic.incr ok
              | Ok { Http.status = 503; _ } -> Atomic.incr shed
              | Ok _ | Error _ -> Atomic.incr failed
            end
          done
        in
        let swarm = List.init n (fun i -> Thread.create swarm_worker i) in
        let timeline = ref [] in
        (* The fault thread is the only writer of [c.segment]/[c.pid] and
           [timeline] while it runs; the main thread reads them only after
           [Thread.join fault_thread] below. *)
        let[@lint.allow "domain-escape"] fault_thread =
          Thread.create
            (fun () ->
              List.iter
                (fun a ->
                  let due = epoch +. a.fa_ts in
                  let rec wait () =
                    let now = Unix.gettimeofday () in
                    if now < due && not (Atomic.get stop) then begin
                      Thread.delay (Float.min 0.05 (due -. now));
                      wait ()
                    end
                  in
                  wait ();
                  if not (Atomic.get stop) then begin
                    let c = children.(a.fa_node) in
                    let ts = Unix.gettimeofday () -. epoch in
                    if a.fa_restart then begin
                      c.segment <- c.segment + 1;
                      c.pid <-
                        spawn_node ~outdir ~config_path ~base_port
                          ~client_port_base ~epoch ~node:a.fa_node
                          ~segment:c.segment;
                      log
                        (Printf.sprintf "t=%.1fs restarted node %d (pid %d)" ts
                           a.fa_node c.pid)
                    end
                    else begin
                      (try Unix.kill c.pid Sys.sigkill
                       with Unix.Unix_error _ -> ());
                      reap c.pid;
                      log
                        (Printf.sprintf "t=%.1fs SIGKILLed node %d (pid %d)" ts
                           a.fa_node c.pid)
                    end;
                    timeline := { a with fa_ts = ts } :: !timeline
                  end)
                timeline_plan)
            ()
        in
        let finish = epoch +. duration in
        let rec sleep_to t =
          let now = Unix.gettimeofday () in
          if now < t then begin
            Thread.delay (Float.min 0.2 (t -. now));
            sleep_to t
          end
        in
        sleep_to finish;
        Atomic.set stop true;
        List.iter Thread.join swarm;
        Thread.join fault_thread;
        terminate_children children ~grace_s:5.0;
        let timeline = List.rev !timeline in
        let kills =
          List.length (List.filter (fun a -> not a.fa_restart) timeline)
        in
        let restarts =
          List.length (List.filter (fun a -> a.fa_restart) timeline)
        in
        let merged, skipped = merge_traces ~outdir ~timeline in
        let merged_path = Filename.concat outdir "merged.jsonl" in
        let oc = open_out merged_path in
        List.iter
          (fun e ->
            output_string oc (Json.to_string (Trace.event_to_json e));
            output_char oc '\n')
          merged;
        close_out oc;
        let expect_commit_after =
          List.fold_left (fun acc a -> Float.max acc a.fa_ts) 0.0 timeline
        in
        let report =
          Monitor.check_trace ~byz_no:config.Config.byz_no
            ~expect_commit_after merged
        in
        let commits =
          List.length
            (List.filter
               (fun (e : Trace.event) ->
                 match e.kind with Trace.Commit -> true | _ -> false)
               merged)
        in
        let catchup_ok =
          List.for_all
            (fun a ->
              List.exists
                (fun (e : Trace.event) ->
                  (match e.kind with Trace.Commit -> true | _ -> false)
                  && e.node = a.fa_node
                  && e.ts > a.fa_ts)
                merged)
            (List.filter (fun a -> a.fa_restart) timeline)
        in
        let reconnects, committed_txs = summary_reconnects ~outdir ~n in
        let summary_path = Filename.concat outdir "cluster-summary.json" in
        let outcome =
          {
            o_report = report;
            o_commits = commits;
            o_committed_txs = committed_txs;
            o_reconnects = reconnects;
            o_kills = kills;
            o_restarts = restarts;
            o_catchup_ok = catchup_ok;
            o_swarm_sent = Atomic.get sent;
            o_swarm_accepted = Atomic.get ok;
            o_swarm_shed = Atomic.get shed;
            o_swarm_failed = Atomic.get failed;
            o_skipped_lines = skipped;
            o_merged_path = merged_path;
            o_summary_path = summary_path;
          }
        in
        let violations =
          List.map
            (fun (v : Monitor.violation) ->
              Json.Obj
                [
                  ( "invariant",
                    Json.String (Monitor.invariant_name v.Monitor.invariant) );
                  ("detail", Json.String v.Monitor.detail);
                ])
            report.Monitor.violations
        in
        write_json_file summary_path
          (Json.Obj
             [
               ("n", Json.Int n);
               ("duration", Json.Float duration);
               ("rate", Json.Float rate);
               ("commits", Json.Int commits);
               ("committed_txs", Json.Int committed_txs);
               ("reconnects", Json.Int reconnects);
               ("kills", Json.Int kills);
               ("restarts", Json.Int restarts);
               ("catchup_ok", Json.Bool catchup_ok);
               ("swarm_sent", Json.Int (Atomic.get sent));
               ("swarm_accepted", Json.Int (Atomic.get ok));
               ("swarm_shed", Json.Int (Atomic.get shed));
               ("swarm_failed", Json.Int (Atomic.get failed));
               ("skipped_trace_lines", Json.Int skipped);
               ("violations", Json.List violations);
             ]);
        Ok outcome
      end

(** Pass criteria for a chaos run: no invariant violations, commits
    landed, and — when the schedule actually killed processes — the
    transport reconnected and every restarted node committed again. *)
let outcome_pass o =
  Monitor.pass o.o_report && o.o_commits > 0
  && (o.o_kills = 0 || (o.o_reconnects > 0 && o.o_catchup_ok))
