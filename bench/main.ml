(* Benchmark harness.

   Three parts:
   1. Bechamel microbenchmarks of the hot data-structure and crypto paths
      (SHA-256 hashing, HMAC signing, block construction, forest insertion,
      mempool batching, QC aggregation, event-queue throughput, codec).
   2. The paper-reproduction experiments: one per table/figure (Table II,
      Figs. 8-15) plus the Section V-E ablations, printed as the same
      rows/series the paper reports. Wall-clock per experiment and the
      simulator's events/second are measured along the way.
   3. A parallel-driver anchor: the same reduced Table II sweep at
      --jobs 1 and --jobs N, recording the speedup and checking the rows
      are identical (the determinism contract of Bamboo_util.Pool).

   Usage:
     dune exec bench/main.exe                 -- micro + all experiments, quick scale
     dune exec bench/main.exe -- micro        -- microbenchmarks only
     dune exec bench/main.exe -- fig13 fig14  -- selected experiments
     dune exec bench/main.exe -- --full all   -- paper-scale everything
     dune exec bench/main.exe -- --jobs 4 all -- 4 worker domains
     dune exec bench/main.exe -- --json BENCH_ci.json --label ci micro
                                              -- machine-readable results
     dune exec bench/main.exe -- compare BENCH_seed.json BENCH_ci.json \
         --tolerance 0.25 --normalize sha256_1KiB
                                              -- perf-regression gate *)

open Bechamel
open Bamboo_types
module Json = Bamboo_util.Json
module Mreg = Bamboo_metrics.Registry
module Snapshot = Bamboo_metrics.Snapshot

let reg = Bamboo_crypto.Sig.setup ~n:4 ~master:"bench"

let sample_txs = List.init 400 (fun seq -> Tx.make ~client:0 ~seq ~payload_len:128)

let sample_block =
  Block.create ~view:1 ~parent:Block.genesis
    ~justify:(Qc.genesis ~block:Block.genesis_hash)
    ~proposer:0 ~txs:sample_txs ()

let sample_payload = String.make 1024 'x'

(* Ring vs mutex/condvar queue: the message-plane tentpole. Each op moves
   one batch through a pre-created structure (push_all then drain — the
   transport's send/recv_batch shape), so ns/op divided by the batch size
   is the per-message handoff cost and batch scaling shows the bchan
   effect: amortizing the producer claim and consumer sync over a batch.
   Batch sizes follow bchan's methodology (1/4/16/64/256). *)
let bench_ring : int Bamboo_util.Ring.t = Bamboo_util.Ring.create ~capacity:1024 ()

let ring_batches =
  List.map (fun k -> (k, List.init k Fun.id)) [ 4; 16; 64; 256 ]

let bench_queue : int Queue.t = Queue.create ()
let bench_queue_mutex = Mutex.create ()
let bench_queue_cond = Condition.create ()

let ring_micro_tests =
  Test.make ~name:"ring_push_pop_batch_1" (Staged.stage (fun () ->
      ignore (Bamboo_util.Ring.push bench_ring 0 : Bamboo_util.Ring.push_result);
      ignore (Bamboo_util.Ring.pop bench_ring : int option)))
  :: List.map
       (fun (k, batch) ->
         Test.make ~name:(Printf.sprintf "ring_push_pop_batch_%d" k)
           (Staged.stage (fun () ->
                ignore (Bamboo_util.Ring.push_all bench_ring batch : int);
                ignore (Bamboo_util.Ring.drain bench_ring (fun _ -> ()) : int))))
       ring_batches
  @ [
      (* The baseline the ring replaced: per-message mutex lock/unlock on
         both sides plus a condvar signal, the send/recv handoff of the
         earlier mutex/condvar in-process transport. *)
      Test.make ~name:"mutex_queue_push_pop_batch_1" (Staged.stage (fun () ->
          Mutex.lock bench_queue_mutex;
          Queue.push 0 bench_queue;
          Condition.signal bench_queue_cond;
          Mutex.unlock bench_queue_mutex;
          Mutex.lock bench_queue_mutex;
          ignore (Queue.pop bench_queue : int);
          Mutex.unlock bench_queue_mutex));
    ]

let micro_tests =
  ring_micro_tests
  @ [
    (* The portable OCaml compression, whatever the CPU: the anchor
       [compare --normalize] divides by, so it must time the same code on
       every machine. [sha256_1KiB_cpu] times the path [Sha256.digest]
       takes here, the CPU's SHA-256 instructions when it has them. *)
    Test.make ~name:"sha256_1KiB" (Staged.stage (fun () ->
        let ctx = Bamboo_crypto.Sha256.init_portable () in
        Bamboo_crypto.Sha256.feed ctx sample_payload;
        ignore (Bamboo_crypto.Sha256.finalize ctx)));
    Test.make ~name:"sha256_1KiB_cpu" (Staged.stage (fun () ->
        ignore (Bamboo_crypto.Sha256.digest sample_payload)));
    Test.make ~name:"hmac_sign_64B" (Staged.stage (fun () ->
        ignore (Bamboo_crypto.Hmac.mac ~key:"benchkey" "payload-to-authenticate")));
    Test.make ~name:"block_create_400tx_merkle" (Staged.stage (fun () ->
        ignore
          (Block.create ~view:1 ~parent:Block.genesis
             ~justify:(Qc.genesis ~block:Block.genesis_hash)
             ~proposer:0 ~txs:sample_txs ())));
    Test.make ~name:"block_create_400tx_flat" (Staged.stage (fun () ->
        ignore
          (Block.create ~root:`Flat ~view:1 ~parent:Block.genesis
             ~justify:(Qc.genesis ~block:Block.genesis_hash)
             ~proposer:0 ~txs:sample_txs ())));
    Test.make ~name:"codec_encode_block" (Staged.stage (fun () ->
        ignore (Codec.encode (Message.Proposal { block = sample_block; tc = None }))));
    Test.make ~name:"forest_insert_100" (Staged.stage (fun () ->
        let f = Bamboo_forest.Forest.create () in
        let parent = ref Block.genesis in
        for view = 1 to 100 do
          let b =
            Block.create ~root:`Flat ~view ~parent:!parent
              ~justify:(Qc.genesis ~block:!parent.Block.hash)
              ~proposer:0 ~txs:[] ()
          in
          ignore (Bamboo_forest.Forest.add f b);
          parent := b
        done));
    Test.make ~name:"mempool_add_batch_1000" (Staged.stage (fun () ->
        let p = Bamboo_mempool.Mempool.create ~capacity:2000 () in
        for seq = 0 to 999 do
          ignore (Bamboo_mempool.Mempool.add p (Tx.make ~client:0 ~seq ~payload_len:0))
        done;
        ignore (Bamboo_mempool.Mempool.batch p ~max:1000)));
    Test.make ~name:"quorum_aggregate_qc" (Staged.stage (fun () ->
        let q = Bamboo_quorum.Quorum.create ~n:4 in
        for voter = 0 to 2 do
          ignore
            (Bamboo_quorum.Quorum.voted q
               (Vote.create reg ~voter ~block:sample_block.Block.hash ~view:1
                  ~height:1))
        done));
    Test.make ~name:"eventq_push_pop_1000" (Staged.stage (fun () ->
        let sim = Bamboo_sim.Sim.create () in
        for i = 1 to 1000 do
          Bamboo_sim.Sim.schedule sim ~delay:(float_of_int i) (fun () -> ())
        done;
        Bamboo_sim.Sim.run_to_completion sim));
    Test.make ~name:"sim_hotstuff_100ms_virtual" (Staged.stage (fun () ->
        let config =
          { Bamboo.Config.default with runtime = 0.1; warmup = 0.01 }
        in
        ignore
          (Bamboo.Runtime.run ~config
             ~workload:(Bamboo.Workload.open_loop ~rate:10_000.0 ())
             ())));
  ]

(* Runs the microbenchmarks, printing as before; returns (name, ns/op)
   pairs for the JSON report. *)
let run_micro () =
  print_endline "=== Microbenchmarks (Bechamel) ===";
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      let acc = ref [] in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est with
          | Some (ns :: _) ->
              if ns >= 1_000_000.0 then
                Printf.printf "  %-32s %10.2f ms/op\n%!" name (ns /. 1e6)
              else if ns >= 1_000.0 then
                Printf.printf "  %-32s %10.2f us/op\n%!" name (ns /. 1e3)
              else Printf.printf "  %-32s %10.1f ns/op\n%!" name ns;
              acc := (name, ns) :: !acc
          | Some [] | None ->
              Printf.printf "  %-32s (no estimate)\n%!" name)
        analyzed;
      List.rev !acc)
    micro_tests

(* Simulator throughput in real events/second: one virtual second of the
   default HotStuff configuration near saturation, timed on the wall
   clock. This is the headline number for the sim-core hot paths (event
   queue, size-once broadcast, QC cache). *)
let measure_events_per_sec ?(metrics = Mreg.null) () =
  let config =
    { Bamboo.Config.default with runtime = 1.0; warmup = 0.1 }
  in
  let rate = 0.8 *. Bamboo.Model.((build ~config).saturation_rate) in
  let workload = Bamboo.Workload.open_loop ~rate () in
  (* warm-up run stays unmetered so the counters cover the timed run only *)
  ignore (Bamboo.Runtime.run ~config ~workload () : Bamboo.Runtime.result);
  let t0 = Unix.gettimeofday () in
  let r = Bamboo.Runtime.run ~config ~workload ~metrics () in
  let wall = Unix.gettimeofday () -. t0 in
  (* The event count is sourced from the metrics registry when one is
     attached; the runtime's own sim_events field must agree exactly. *)
  let events =
    if Mreg.enabled metrics then begin
      let n = Snapshot.counter_value r.Bamboo.Runtime.metrics "sim_events_fired" in
      if n <> r.Bamboo.Runtime.sim_events then begin
        Printf.eprintf
          "bench: metrics registry (%d events) disagrees with runtime (%d)\n" n
          r.Bamboo.Runtime.sim_events;
        exit 1
      end;
      n
    end
    else r.Bamboo.Runtime.sim_events
  in
  let eps = float_of_int events /. wall in
  Printf.printf "\nsimulator: %d events in %.2f s wall = %.0f events/s\n%!"
    events wall eps;
  (events, wall, eps)

(* The model-checker anchor: an exhaustive DFS over the small honest
   HotStuff cell, with and without partial-order reduction, timed on the
   wall clock. [states_per_sec] is the exploration throughput in the
   production configuration (POR on); [pruned_ratio] is the brute-force
   state count over the reduced one — a machine-independent measure of
   how much the sleep sets and state hashing prune, which must stay
   well above 1. *)
let measure_explore ~jobs =
  let s =
    Bamboo_explore.Scheduler.scenario ~protocol:Bamboo.Config.Hotstuff ~n:4
      ~byz_no:0 ~strategy:Bamboo.Config.Honest ~horizon:0.6 ~timeout:0.05 ()
  in
  let dfs ~por =
    let t0 = Unix.gettimeofday () in
    let stats, _ =
      Bamboo_explore.Strategy.dfs ~por ~window:1e-4 ~max_decisions:4
        ~max_runs:500 ~jobs s
    in
    (stats, Unix.gettimeofday () -. t0)
  in
  let on, wall = dfs ~por:true in
  let off, _ = dfs ~por:false in
  let states_per_sec = float_of_int on.Bamboo_explore.Strategy.states /. wall in
  let pruned_ratio =
    float_of_int off.Bamboo_explore.Strategy.states
    /. float_of_int (max 1 on.Bamboo_explore.Strategy.states)
  in
  Printf.printf
    "\nexplore: %d runs, %d states in %.2f s wall = %.1f states/s, POR \
     pruned-ratio %.1fx (%d states brute-force)\n%!"
    on.Bamboo_explore.Strategy.runs on.Bamboo_explore.Strategy.states wall
    states_per_sec pruned_ratio off.Bamboo_explore.Strategy.states;
  (on.Bamboo_explore.Strategy.runs, on.Bamboo_explore.Strategy.states, wall,
   states_per_sec, pruned_ratio)

(* The parallel anchor: a reduced Table II sweep at jobs=1 vs jobs=N.
   [rows_match] must always be true (Pool.map returns results in
   submission order); [speedup] approaches min(N, cores, cells) on
   multicore hardware and ~1.0 on a single core. *)
let measure_parallel_anchor ~jobs =
  let base =
    { Bamboo.Config.default with runtime = 1.5; warmup = 0.25 }
  in
  let timed j =
    Bamboo.Experiments.set_jobs j;
    let t0 = Unix.gettimeofday () in
    let rows = Bamboo.Experiments.table2_rows ~base Bamboo.Experiments.Quick in
    (rows, Unix.gettimeofday () -. t0)
  in
  let rows_seq, wall_seq = timed 1 in
  let rows_par, wall_par = timed jobs in
  Bamboo.Experiments.set_jobs jobs;
  let cells = List.length rows_seq in
  let speedup = wall_seq /. wall_par in
  let rows_match = rows_seq = rows_par in
  Printf.printf
    "\nparallel anchor (reduced table2, %d cells): jobs=1 %.2f s, jobs=%d \
     %.2f s, speedup %.2fx, rows %s\n%!"
    cells wall_seq jobs wall_par speedup
    (if rows_match then "identical" else "DIFFER");
  (cells, wall_seq, wall_par, speedup, rows_match)

let usage () =
  prerr_endline
    "usage: main.exe [--full] [--jobs N] [--json PATH] [--label NAME] \
     [micro|all|<experiment>...]\n\
    \       main.exe compare OLD.json NEW.json [--tolerance T] \
     [--normalize MICRO_NAME]";
  exit 2

(* ------------------------------------------------------------------ *)
(* [compare OLD NEW]: the perf-regression gate over two --json reports.

   A micro benchmark regresses when its ns/op grows beyond (1 + T) times
   the old value; the simulator regresses when events/sec falls below
   (1 - T) times the old value. --normalize divides each report's ns/op
   values by that report's own measurement of the named micro benchmark
   (and multiplies events/sec by it), turning every comparison into a
   machine-relative ratio — the CI runners are not the machine that wrote
   BENCH_seed.json. Exits 1 naming every regressed metric. *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error e ->
      Printf.eprintf "bench compare: %s\n" e;
      exit 2
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s

let run_compare args =
  let tolerance = ref 0.25 in
  let normalize = ref None in
  let paths = ref [] in
  let rec go = function
    | [] -> ()
    | "--tolerance" :: v :: rest -> (
        match float_of_string_opt v with
        | Some t when t >= 0.0 ->
            tolerance := t;
            go rest
        | _ ->
            Printf.eprintf
              "bench compare: --tolerance must be a float >= 0 (got %S)\n" v;
            exit 2)
    | "--normalize" :: name :: rest ->
        normalize := Some name;
        go rest
    | [ ("--tolerance" | "--normalize") ] -> usage ()
    | p :: rest when String.length p > 0 && p.[0] <> '-' ->
        paths := !paths @ [ p ];
        go rest
    | p :: _ ->
        Printf.eprintf "bench compare: unknown option %s\n" p;
        usage ()
  in
  go args;
  let old_path, new_path =
    match !paths with [ a; b ] -> (a, b) | _ -> usage ()
  in
  let load path =
    match Json.of_string (read_file path) with
    | j -> j
    | exception Json.Parse_error e ->
        Printf.eprintf "bench compare: %s: %s\n" path e;
        exit 2
  in
  let old_j = load old_path and new_j = load new_path in
  let micro j =
    match Json.member "micro" j with
    | Json.Null -> []
    | m ->
        List.map
          (fun o ->
            ( Json.get_string (Json.member "name" o),
              Json.to_float (Json.member "ns_per_op" o) ))
          (Json.to_list m)
  in
  let eps j =
    match Json.member "simulator" j with
    | Json.Null -> None
    | s -> (
        match Json.member "events_per_sec" s with
        | Json.Null -> None
        | v -> Some (Json.to_float v))
  in
  let old_micro = micro old_j and new_micro = micro new_j in
  let scale_of path m =
    match !normalize with
    | None -> 1.0
    | Some anchor -> (
        match List.assoc_opt anchor m with
        | Some ns when ns > 0.0 -> ns
        | Some _ | None ->
            Printf.eprintf "bench compare: anchor %S missing from %s\n" anchor
              path;
            exit 2)
  in
  let scale_old = scale_of old_path old_micro in
  let scale_new = scale_of new_path new_micro in
  Printf.printf "bench compare: %s -> %s (tolerance %.0f%%%s)\n" old_path
    new_path
    (!tolerance *. 100.0)
    (match !normalize with
    | None -> ""
    | Some a -> Printf.sprintf ", normalized to %s" a);
  let regressions = ref [] in
  let compared = ref 0 in
  List.iter
    (fun (name, old_ns) ->
      if !normalize <> Some name then
        match List.assoc_opt name new_micro with
        | None ->
            Printf.printf "  micro/%-32s missing from new report, skipped\n"
              name
        | Some new_ns ->
            incr compared;
            let ratio = new_ns /. scale_new /. (old_ns /. scale_old) in
            let bad = ratio > 1.0 +. !tolerance in
            if bad then
              regressions :=
                Printf.sprintf
                  "micro/%s: %.1f -> %.1f ns/op (%.2fx, allowed %.2fx)" name
                  old_ns new_ns ratio
                  (1.0 +. !tolerance)
                :: !regressions;
            Printf.printf "  micro/%-32s %10.1f -> %10.1f ns/op  %.2fx %s\n"
              name old_ns new_ns ratio
              (if bad then "REGRESSION" else "ok"))
    old_micro;
  (match (eps old_j, eps new_j) with
  | Some old_eps, Some new_eps ->
      incr compared;
      (* normalized events/sec: multiplying by the report's own anchor
         ns/op cancels the machine's absolute speed *)
      let ratio = new_eps *. scale_new /. (old_eps *. scale_old) in
      let bad = ratio < 1.0 -. !tolerance in
      if bad then
        regressions :=
          Printf.sprintf
            "simulator/events_per_sec: %.0f -> %.0f (%.2fx, allowed %.2fx)"
            old_eps new_eps ratio
            (1.0 -. !tolerance)
          :: !regressions;
      Printf.printf "  simulator/%-32s %10.0f -> %10.0f ev/s   %.2fx %s\n"
        "events_per_sec" old_eps new_eps ratio
        (if bad then "REGRESSION" else "ok")
  | None, _ | Some _, None ->
      Printf.printf "  simulator/events_per_sec absent, skipped\n");
  (* explore/pruned_ratio is a pure state-count ratio — machine-independent,
     so it is compared unnormalized; throughput would need the anchor but
     state counts are part of the determinism contract, so the ratio gate
     is the one that catches a POR regression. *)
  let explore_ratio j =
    match Json.member "explore" j with
    | Json.Null -> None
    | e -> (
        match Json.member "pruned_ratio" e with
        | Json.Null -> None
        | v -> Some (Json.to_float v))
  in
  (match (explore_ratio old_j, explore_ratio new_j) with
  | Some old_r, Some new_r ->
      incr compared;
      let ratio = new_r /. old_r in
      let bad = ratio < 1.0 -. !tolerance in
      if bad then
        regressions :=
          Printf.sprintf
            "explore/pruned_ratio: %.1fx -> %.1fx (%.2fx, allowed %.2fx)"
            old_r new_r ratio
            (1.0 -. !tolerance)
          :: !regressions;
      Printf.printf "  explore/%-32s %10.1f -> %10.1f x      %.2fx %s\n"
        "pruned_ratio" old_r new_r ratio
        (if bad then "REGRESSION" else "ok")
  | None, _ | Some _, None ->
      Printf.printf "  explore/pruned_ratio absent, skipped\n");
  match List.rev !regressions with
  | [] ->
      Printf.printf "bench compare: OK (%d metrics within tolerance)\n%!"
        !compared;
      exit 0
  | regs ->
      List.iter
        (fun r -> Printf.printf "bench compare: REGRESSION %s\n" r)
        regs;
      exit 1

type opts = {
  mutable full : bool;
  mutable jobs : int option;
  mutable json : string option;
  mutable label : string;
  mutable names : string list;
}

let parse_args () =
  let o =
    { full = false; jobs = None; json = None; label = "local"; names = [] }
  in
  let rec go = function
    | [] -> ()
    | "--full" :: rest -> o.full <- true; go rest
    | "--jobs" :: v :: rest -> (
        match int_of_string_opt v with
        | Some j when j >= 1 -> o.jobs <- Some j; go rest
        | _ ->
            Printf.eprintf "bench: --jobs must be an integer >= 1 (got %S)\n" v;
            exit 2)
    | "--json" :: path :: rest -> o.json <- Some path; go rest
    | "--label" :: l :: rest -> o.label <- l; go rest
    | ("--jobs" | "--json" | "--label") :: [] -> usage ()
    | name :: _ when String.length name > 1 && name.[0] = '-' ->
        Printf.eprintf "bench: unknown option %s\n" name;
        usage ()
    | name :: rest -> o.names <- o.names @ [ name ]; go rest
  in
  go (Array.to_list Sys.argv |> List.tl);
  o

let main () =
  let o = parse_args () in
  let scale =
    if o.full then Bamboo.Experiments.Full else Bamboo.Experiments.Quick
  in
  let jobs =
    match o.jobs with
    | Some j -> j
    | None -> Bamboo_util.Pool.recommended_jobs ()
  in
  Bamboo.Experiments.set_jobs jobs;
  let micro_results = ref [] in
  let experiment_walls = ref [] in
  let run_experiment name =
    let t0 = Unix.gettimeofday () in
    (match Bamboo.Experiments.run_one ~scale name with
    | Ok () -> ()
    | Error e ->
        prerr_endline e;
        exit 2);
    experiment_walls := !experiment_walls @ [ (name, Unix.gettimeofday () -. t0) ]
  in
  let run_all_experiments () =
    List.iter run_experiment Bamboo.Experiments.names
  in
  let want_micro, want_experiments =
    match o.names with
    | [] -> (true, `All)
    | names ->
        ( List.mem "micro" names,
          match List.filter (fun n -> n <> "micro") names with
          | [] -> `None
          | [ "all" ] -> `All
          | names -> `Some names )
  in
  if want_micro then micro_results := run_micro ();
  (match want_experiments with
  | `All -> run_all_experiments ()
  | `Some names -> List.iter run_experiment names
  | `None -> ());
  (* The measurement sections only run when a JSON report is requested:
     plain invocations keep the original fast path. *)
  match o.json with
  | None -> ()
  | Some path ->
      (* The report embeds a metrics snapshot: the simulator run feeds the
         registry directly, the parallel anchor's cells feed the pool-task
         histogram through Experiments. *)
      let mreg = Mreg.create () in
      Bamboo.Experiments.set_metrics mreg;
      let sim_events, sim_wall, eps = measure_events_per_sec ~metrics:mreg () in
      let explore_runs, explore_states, explore_wall, states_per_sec,
          pruned_ratio =
        measure_explore ~jobs
      in
      let anchor_cells, wall_seq, wall_par, speedup, rows_match =
        measure_parallel_anchor ~jobs
      in
      Bamboo.Experiments.set_metrics Mreg.null;
      (* Transport summary, derived from the ring micro entries (which the
         compare gate already covers individually): per-message handoff
         throughput at each batch size, plus the ring-vs-mutex ratio at
         batch 1 — the tentpole claim, < 1.0 means the lock-free ring
         beats the locked queue on this machine. *)
      let transport_entries =
        List.filter_map
          (fun k ->
            match
              List.assoc_opt
                (Printf.sprintf "ring_push_pop_batch_%d" k)
                !micro_results
            with
            | Some ns when ns > 0.0 ->
                Some (k, ns, float_of_int k *. 1e9 /. ns)
            | Some _ | None -> None)
          [ 1; 4; 16; 64; 256 ]
      in
      let ring_vs_mutex =
        match
          ( List.assoc_opt "ring_push_pop_batch_1" !micro_results,
            List.assoc_opt "mutex_queue_push_pop_batch_1" !micro_results )
        with
        | Some ring_ns, Some mutex_ns when mutex_ns > 0.0 ->
            Some (ring_ns /. mutex_ns)
        | _ -> None
      in
      List.iter
        (fun (k, ns, msgs) ->
          Printf.printf "transport: ring batch %3d  %8.1f ns/op = %12.0f msgs/s\n%!"
            k ns msgs)
        transport_entries;
      (match ring_vs_mutex with
      | Some r ->
          Printf.printf
            "transport: ring/mutex ns-per-msg ratio %.2fx (<1 = ring wins)\n%!" r
      | None -> ());
      let json =
        Json.Obj
          [
            ("label", Json.String o.label);
            ("scale", Json.String (if o.full then "full" else "quick"));
            ("jobs", Json.Int jobs);
            ( "micro",
              Json.List
                (List.map
                   (fun (name, ns) ->
                     Json.Obj
                       [
                         ("name", Json.String name);
                         ("ns_per_op", Json.Float ns);
                       ])
                   !micro_results) );
            ( "experiments",
              Json.List
                (List.map
                   (fun (name, wall) ->
                     Json.Obj
                       [
                         ("name", Json.String name);
                         ("wall_s", Json.Float wall);
                       ])
                   !experiment_walls) );
            ( "simulator",
              Json.Obj
                [
                  ("events", Json.Int sim_events);
                  ("wall_s", Json.Float sim_wall);
                  ("events_per_sec", Json.Float eps);
                ] );
            ( "explore",
              Json.Obj
                [
                  ("runs", Json.Int explore_runs);
                  ("states", Json.Int explore_states);
                  ("wall_s", Json.Float explore_wall);
                  ("states_per_sec", Json.Float states_per_sec);
                  ("pruned_ratio", Json.Float pruned_ratio);
                ] );
            ( "transport",
              Json.Obj
                [
                  ( "ring_batches",
                    Json.List
                      (List.map
                         (fun (k, ns, msgs) ->
                           Json.Obj
                             [
                               ("batch", Json.Int k);
                               ("ns_per_op", Json.Float ns);
                               ("msgs_per_sec", Json.Float msgs);
                             ])
                         transport_entries) );
                  ( "ring_vs_mutex_batch1",
                    match ring_vs_mutex with
                    | Some r -> Json.Float r
                    | None -> Json.Null );
                ] );
            ( "parallel",
              Json.Obj
                [
                  ("cells", Json.Int anchor_cells);
                  ("jobs", Json.Int jobs);
                  ("wall_s_jobs1", Json.Float wall_seq);
                  ("wall_s_jobsN", Json.Float wall_par);
                  ("speedup", Json.Float speedup);
                  ("rows_match", Json.Bool rows_match);
                ] );
            ("metrics", Snapshot.to_json (Mreg.snapshot mreg));
          ]
      in
      let oc = open_out path in
      output_string oc (Json.to_string ~indent:true json);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n%!" path;
      if not rows_match then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: rest -> run_compare rest
  | _ -> main ()
