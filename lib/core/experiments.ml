module Table = Bamboo_util.Table
module Stats = Bamboo_util.Stats
module Pool = Bamboo_util.Pool
module Schedule = Bamboo_faults.Schedule
module Registry = Bamboo_metrics.Registry

type scale = Quick | Full

let runtime_of = function Quick -> 3.0 | Full -> 12.0
let warmup_of = function Quick -> 0.5 | Full -> 2.0

let protocols = [ Config.Hotstuff; Config.Twochain; Config.Streamlet ]

let base_config scale =
  { Config.default with runtime = runtime_of scale; warmup = warmup_of scale }

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let ms v = Table.fmt_float ~decimals:2 (v *. 1000.0)
let ktx v = Table.fmt_float ~decimals:1 (v /. 1000.0)

(* ------------------------------------------------------------------ *)
(* The parallel cell driver.

   Every experiment is a grid of independent simulation cells — one
   [Runtime.run] with its own [Sim.t], RNG streams, machines and nodes —
   whose parameters never depend on another cell's result. Each
   experiment therefore splits into a plan phase (build the flat list of
   cells), an execute phase (run them on a fixed-size domain pool) and a
   render phase (format rows from each cell's projection). The execute
   phase projects a cell's result onto what the render phase reads (its
   summary or its throughput series) on the worker domain that ran it,
   so a finished cell's forests, ledgers and tx records are garbage at
   once rather than held until the whole sweep ends. [Pool.map] returns
   projections in submission order, so the rendered tables are
   byte-identical to a sequential run at any job count. *)

(* Written only by [set_jobs] on the main domain before any Pool worker
   starts; workers never touch it, so the shared ref cannot race. *)
let[@lint.allow "domain-safety"] jobs_ref = ref (Pool.recommended_jobs ())

let set_jobs n =
  if n < 1 then invalid_arg "Experiments.set_jobs: jobs must be >= 1";
  jobs_ref := n

let jobs () = !jobs_ref

(* Like [jobs_ref]: set once on the main domain before any experiment
   runs. Pool workers only record through the registry's domain-safe
   handles. *)
let[@lint.allow "domain-safety"] metrics_ref = ref Registry.null

let set_metrics reg = metrics_ref := reg
let metrics () = !metrics_ref

(* One independent simulation cell: configuration, workload, and the
   optional metrics bucket width. *)
type cell = Config.t * Workload.t * float option

(* What the render phases read of a cell's result. *)
let summary_of (r : Runtime.result) = r.Runtime.summary
let series_of (r : Runtime.result) = r.Runtime.series

let run_cells (project : Runtime.result -> 'a) (cells : cell list) : 'a list =
  let reg = !metrics_ref in
  let probe =
    (* Per-cell wall-clock latency, recorded from the worker domain that
       ran the cell: one locked update per cell. *)
    if Registry.enabled reg then begin
      let tasks = Registry.counter reg "pool_tasks" in
      let lat = Registry.histogram reg "pool_task_latency_ns" in
      Some
        (fun _i secs ->
          Registry.Counter.incr tasks;
          Registry.Histogram.observe_s lat secs)
    end
    else None
  in
  (* On one domain, collect a finished cell before the next starts. The
     major GC otherwise lags a cell behind, so the next cell's peak lands
     on top of its predecessor's garbage: a sequential Table II sweep
     peaked at 4.6M to 6.2M heap words (64 MB resident) depending only on
     where the first minor collection fell, and peaks at 3.9M (46 MB)
     with the collection. Parallel workers skip it: a full major cycle
     stops every domain. *)
  let sequential = !jobs_ref = 1 in
  Pool.map ~jobs:!jobs_ref ?probe
    (fun (config, workload, bucket) ->
      let projected =
        project
          (match bucket with
          | None -> Runtime.run ~config ~workload ()
          | Some bucket -> Runtime.run ~config ~workload ~bucket ())
      in
      if sequential then Gc.full_major ();
      projected)
    cells

(* Split [xs] into consecutive chunks whose sizes follow [counts]. *)
let chunks counts xs =
  let rec take n acc xs =
    if n = 0 then (List.rev acc, xs)
    else
      match xs with
      | x :: tl -> take (n - 1) (x :: acc) tl
      | [] -> invalid_arg "Experiments.chunks: too few results"
  in
  let rec go counts xs =
    match counts with
    | [] -> ( match xs with [] -> [] | _ :: _ -> invalid_arg "Experiments.chunks: leftover results")
    | c :: rest ->
        let chunk, xs = take c [] xs in
        chunk :: go rest xs
  in
  go counts xs

(* Run one simulation per (config, rate) over all groups in a single
   parallel batch; per-group summary lists come back in submission
   order. *)
let sweep_groups groups =
  let cells =
    List.concat_map
      (fun (config, rates) ->
        List.map
          (fun rate -> (config, Workload.open_loop ~rate (), None))
          rates)
      groups
  in
  chunks
    (List.map (fun (_, rates) -> List.length rates) groups)
    (run_cells summary_of cells)

let sweep ~config ~rates =
  match sweep_groups [ (config, rates) ] with
  | [ summaries ] -> List.combine rates summaries
  | _ -> assert false

(* True capacity of a configuration: the paper's Eq. 4 saturation bound
   capped by the implementation-aware estimate (leader NIC fan-out,
   per-vote verification, echo traffic). *)
let capacity config =
  let m = Model.build ~config in
  Float.min m.Model.saturation_rate (Model.sim_saturation_rate ~config)

(* Streamlet's echoing makes view times grow linearly with n; its
   consecutive-view commit rule starves when the view timer sits below the
   actual view time, so scale the timeout with the cluster (an operator
   would do the same; the paper calls its large-n Streamlet results
   "meaningless"). *)
let tune_timeout (config : Config.t) =
  if config.protocol = Config.Streamlet && config.n >= 16 then begin
    let config =
      {
        config with
        timeout =
          Float.max config.timeout (0.0125 *. float_of_int config.n);
      }
    in
    (* Steady state also needs several full leader rotations: with view
       times ~ bsize/capacity, make the run at least three rotations long
       and the warmup at least one. *)
    let view_time =
      float_of_int config.bsize /. Model.sim_saturation_rate ~config
    in
    let rotation = float_of_int config.n *. view_time in
    {
      config with
      runtime = Float.max config.runtime (3.0 *. rotation);
      warmup = Float.max config.warmup rotation;
    }
  end
  else config

let saturation_sweep_rates ~config ~scale =
  let cap = capacity config in
  let fractions =
    match scale with
    | Quick -> [ 0.2; 0.5; 0.8; 0.95; 1.1 ]
    | Full -> [ 0.15; 0.3; 0.5; 0.7; 0.85; 0.95; 1.05; 1.2 ]
  in
  List.map (fun f -> f *. cap) fractions

(* ------------------------------------------------------------------ *)
(* Table II: arrival rate vs committed throughput (HotStuff, n=4,
   bsize=400).                                                         *)

let table2_rows ?base scale =
  let base = match base with Some b -> b | None -> base_config scale in
  let config = { base with Config.protocol = Config.Hotstuff } in
  let cap = capacity config in
  let fractions = [ 0.15; 0.3; 0.45; 0.6; 0.75; 0.9; 0.98 ] in
  let rates = List.map (fun f -> f *. cap) fractions in
  List.map
    (fun (rate, (s : Metrics.summary)) ->
      [
        Printf.sprintf "%.0f" rate;
        Printf.sprintf "%.0f" s.Metrics.throughput;
      ])
    (sweep ~config ~rates)

let table2 scale =
  section
    "Table II: transaction arrival rate vs transaction throughput \
     (HotStuff, bsize 400, 4 replicas)";
  Table.print
    ~header:[ "Arrival rate (Tx/s)"; "Throughput (Tx/s)" ]
    ~rows:(table2_rows scale)

(* ------------------------------------------------------------------ *)
(* Fig. 8: model vs implementation, four (n, bsize) panels.            *)

let fig8_group_rows ~config ~rates summaries =
  let m = Model.build ~config in
  List.map2
    (fun rate (s : Metrics.summary) ->
      let model_lat =
        match Model.latency m ~rate with
        | Some l -> ms l
        | None -> "sat"
      in
      [ ktx rate; ktx s.throughput; ms s.latency_mean; model_lat ])
    rates summaries

let fig8_panel_groups ~base ~scale ~panels =
  List.concat_map
    (fun (n, bsize) ->
      List.map
        (fun protocol ->
          let config = { base with Config.protocol; n; bsize } in
          ((n, bsize, protocol, config), saturation_sweep_rates ~config ~scale))
        protocols)
    panels

let fig8_panel_rows ?base ~n ~bsize scale =
  let base = match base with Some b -> b | None -> base_config scale in
  let groups = fig8_panel_groups ~base ~scale ~panels:[ (n, bsize) ] in
  let summaries =
    sweep_groups
      (List.map (fun ((_, _, _, config), rates) -> (config, rates)) groups)
  in
  List.map2
    (fun ((_, _, protocol, config), rates) s ->
      (Config.protocol_name protocol, fig8_group_rows ~config ~rates s))
    groups summaries

let fig8 scale =
  section
    "Fig. 8: model vs implementation, throughput (k tx/s) vs latency (ms)";
  let panels = [ (4, 100); (8, 100); (4, 400); (8, 400) ] in
  let groups = fig8_panel_groups ~base:(base_config scale) ~scale ~panels in
  let summaries =
    sweep_groups
      (List.map (fun ((_, _, _, config), rates) -> (config, rates)) groups)
  in
  List.iter2
    (fun ((n, bsize, protocol, config), rates) s ->
      if protocol = List.hd protocols then
        Printf.printf "\n-- panel n=%d, bsize=%d --\n" n bsize;
      Printf.printf "%s:\n" (Config.protocol_name protocol);
      Table.print
        ~header:[ "rate(k)"; "thr(k)"; "sim lat(ms)"; "model lat(ms)" ]
        ~rows:(fig8_group_rows ~config ~rates s))
    groups summaries

(* ------------------------------------------------------------------ *)
(* Fig. 9: block sizes 100/400/800 plus the OHS-like baseline.         *)

(* The original C++ libhotstuff baseline: clients over raw TCP rather than
   a REST layer and a slightly cheaper crypto path. Modelled as documented
   in DESIGN.md (substitutions table). *)
let ohs_like (config : Config.t) =
  { config with cpu_op = config.cpu_op *. 0.85; mu = config.mu *. 0.9 }

let fig9 scale =
  section "Fig. 9: throughput vs latency with block sizes 100, 400, 800";
  let series =
    List.concat_map
      (fun bsize ->
        List.map
          (fun protocol ->
            let config = { (base_config scale) with protocol; bsize } in
            ( Printf.sprintf "%s-b%d" (Config.protocol_name protocol) bsize,
              config ))
          protocols)
      [ 100; 400; 800 ]
    @ List.map
        (fun bsize ->
          let config =
            ohs_like
              { (base_config scale) with protocol = Config.Hotstuff; bsize }
          in
          (Printf.sprintf "OHS-b%d" bsize, config))
        [ 100; 800 ]
  in
  let with_rates =
    List.map
      (fun (name, config) ->
        (name, config, saturation_sweep_rates ~config ~scale))
      series
  in
  let summaries =
    sweep_groups (List.map (fun (_, config, rates) -> (config, rates)) with_rates)
  in
  let rows =
    List.concat
      (List.map2
         (fun (name, _, _) sums ->
           List.map
             (fun (s : Metrics.summary) ->
               [ name; ktx s.throughput; ms s.latency_mean; ms s.latency_p99 ])
             sums)
         with_rates summaries)
  in
  Table.print ~header:[ "series"; "thr(k)"; "lat(ms)"; "p99(ms)" ] ~rows

(* ------------------------------------------------------------------ *)
(* Fig. 10: payload sizes 0/128/1024 bytes.                            *)

let labelled_saturation_table ~scale ~header series =
  let with_rates =
    List.map
      (fun (name, config) ->
        (name, config, saturation_sweep_rates ~config ~scale))
      series
  in
  let summaries =
    sweep_groups (List.map (fun (_, config, rates) -> (config, rates)) with_rates)
  in
  let rows =
    List.concat
      (List.map2
         (fun (name, _, _) sums ->
           List.map
             (fun (s : Metrics.summary) ->
               [ name; ktx s.throughput; ms s.latency_mean ])
             sums)
         with_rates summaries)
  in
  Table.print ~header ~rows

let fig10 scale =
  section
    "Fig. 10: throughput vs latency with payload sizes 0, 128, 1024 bytes";
  let series =
    List.concat_map
      (fun psize ->
        List.map
          (fun protocol ->
            ( Printf.sprintf "%s-p%d" (Config.protocol_name protocol) psize,
              { (base_config scale) with protocol; psize } ))
          protocols)
      [ 0; 128; 1024 ]
  in
  labelled_saturation_table ~scale
    ~header:[ "series"; "thr(k)"; "lat(ms)" ]
    series

(* ------------------------------------------------------------------ *)
(* Fig. 11: added network delays 0 / 5+-1 / 10+-2 ms.                  *)

let fig11 scale =
  section
    "Fig. 11: throughput vs latency with added network delay 0, 5(+-1), \
     10(+-2) ms";
  let delays = [ (0.0, 0.0); (0.005, 0.001); (0.010, 0.002) ] in
  let series =
    List.concat_map
      (fun (d_mu, d_sigma) ->
        List.map
          (fun protocol ->
            ( Printf.sprintf "%s-d%.0f" (Config.protocol_name protocol)
                (d_mu *. 1000.0),
              {
                (base_config scale) with
                protocol;
                psize = 128;
                extra_delay_mu = d_mu;
                extra_delay_sigma = d_sigma;
              } ))
          protocols)
      delays
  in
  labelled_saturation_table ~scale
    ~header:[ "series"; "thr(k)"; "lat(ms)" ]
    series

(* ------------------------------------------------------------------ *)
(* Fig. 12: scalability.                                               *)

let fig12 scale =
  section
    "Fig. 12: scalability (128-byte payload, block size 400): throughput \
     and latency vs cluster size";
  let sizes, seeds =
    match scale with
    | Quick -> ([ 4; 8; 16; 32 ], [ 42; 43 ])
    | Full -> ([ 4; 8; 16; 32; 64; 128 ], [ 42; 43; 44 ])
  in
  let sl_cap = match scale with Quick -> 16 | Full -> 32 in
  let combos =
    List.concat_map
      (fun protocol ->
        List.filter_map
          (fun n ->
            if protocol = Config.Streamlet && n > sl_cap then None
            else begin
              let config =
                tune_timeout
                  { (base_config scale) with protocol; n; psize = 128 }
              in
              let rate = 0.8 *. capacity config in
              Some (protocol, n, config, rate)
            end)
          sizes)
      protocols
  in
  let cells =
    List.concat_map
      (fun (_, _, config, rate) ->
        List.map
          (fun seed ->
            (({ config with Config.seed } : Config.t),
             Workload.open_loop ~rate (),
             None))
          seeds)
      combos
  in
  let grouped =
    chunks
      (List.map (fun _ -> List.length seeds) combos)
      (run_cells summary_of cells)
  in
  let rows =
    List.map2
      (fun (protocol, n, _, _) results ->
        (* Reverse order matches the sequential driver's fold, which
           prepended each seed's result: statistics are computed over the
           identical float list, so stddev rounding is unchanged. *)
        let thrs =
          List.rev_map
            (fun (s : Metrics.summary) -> s.Metrics.throughput)
            results
        in
        let lats =
          List.rev_map
            (fun (s : Metrics.summary) -> s.Metrics.latency_mean)
            results
        in
        [
          Config.protocol_name protocol;
          string_of_int n;
          ktx (Stats.mean_of thrs);
          ktx (Stats.stddev_of thrs);
          ms (Stats.mean_of lats);
          ms (Stats.stddev_of lats);
        ])
      combos grouped
  in
  Table.print
    ~header:
      [ "protocol"; "n"; "thr(k)"; "+-"; "lat(ms)"; "+-" ]
    ~rows

(* ------------------------------------------------------------------ *)
(* Figs. 13 and 14: Byzantine attacks at n=32.                         *)

let byzantine_experiment scale ~strategy ~timeout ~title =
  section title;
  let byz_counts = [ 0; 1; 2; 4; 8 ] in
  let n = 32 in
  let combos =
    List.concat_map
      (fun protocol ->
        List.map
          (fun byz_no ->
            let config =
              tune_timeout
                {
                  (base_config scale) with
                  protocol;
                  n;
                  psize = 128;
                  byz_no;
                  strategy;
                  timeout;
                }
            in
            let rate = 0.4 *. capacity config in
            (protocol, byz_no, config, rate))
          byz_counts)
      protocols
  in
  let results =
    run_cells summary_of
      (List.map
         (fun (_, _, config, rate) ->
           (config, Workload.open_loop ~rate (), None))
         combos)
  in
  let rows =
    List.map2
      (fun (protocol, byz_no, _, _) (s : Metrics.summary) ->
        [
          Config.protocol_name protocol;
          string_of_int byz_no;
          ktx s.Metrics.throughput;
          ms s.Metrics.latency_mean;
          Table.fmt_float ~decimals:3 s.Metrics.cgr;
          Table.fmt_float ~decimals:2 s.Metrics.block_interval;
          string_of_int s.Metrics.forked_blocks;
        ])
      combos results
  in
  Table.print
    ~header:[ "protocol"; "byz"; "thr(k)"; "lat(ms)"; "CGR"; "BI"; "forked" ]
    ~rows

let fig13 scale =
  byzantine_experiment scale ~strategy:Config.Fork ~timeout:0.1
    ~title:
      "Fig. 13: forking attack, 32 nodes, increasing Byzantine nodes \
       (throughput, latency, CGR, BI)"

let fig14 scale =
  byzantine_experiment scale ~strategy:Config.Silence ~timeout:0.05
    ~title:
      "Fig. 14: silence attack, 32 nodes, increasing Byzantine nodes \
       (timeout 50 ms)"

(* ------------------------------------------------------------------ *)
(* Fig. 15: responsiveness under network fluctuation + crash.          *)

let fig15 scale =
  section
    "Fig. 15: responsiveness test; 10 s of 10-100 ms delay fluctuation \
     from t=5s, one replica silent from t=17s; committed throughput \
     (k tx/s) per second";
  ignore scale;
  let runtime = 26.0 in
  let settings =
    [
      ("t10", 0.010, Config.Immediate);
      ("t100", 0.100, Config.Wait_timeout);
    ]
  in
  let setting_cells (_, timeout, propose_policy) =
    List.map
      (fun protocol ->
        let config =
          {
            (base_config Quick) with
            protocol;
            n = 4;
            timeout;
            propose_policy;
            runtime;
            warmup = 1.0;
            faults =
              [
                {
                  Schedule.at = 5.0;
                  until = Some 15.0;
                  spec = Schedule.Fluctuation { lo = 0.010; hi = 0.100 };
                };
                {
                  Schedule.at = 17.0;
                  until = None;
                  spec = Schedule.Crash { node = 3 };
                };
              ];
          }
        in
        let rate = 0.7 *. capacity config in
        (config, Workload.open_loop ~rate (), Some 1.0))
      protocols
  in
  let grouped =
    chunks
      (List.map (fun _ -> List.length protocols) settings)
      (run_cells series_of (List.concat_map setting_cells settings))
  in
  List.iter2
    (fun (label, _, _) results ->
      Printf.printf "\n-- setting %s --\n" label;
      let series_per_protocol =
        List.map2
          (fun protocol series -> (Config.protocol_name protocol, series))
          protocols results
      in
      let buckets =
        match series_per_protocol with
        | (_, first) :: _ -> List.map fst first
        | [] -> []
      in
      let rows =
        List.map
          (fun t ->
            Printf.sprintf "%.0f" t
            :: List.map
                 (fun (_, series) ->
                   match List.assoc_opt t series with
                   | Some thr -> ktx thr
                   | None -> "")
                 series_per_protocol)
          buckets
      in
      Table.print
        ~header:
          ("t(s)"
          :: List.map (fun (name, _) -> name) series_per_protocol)
        ~rows)
    settings grouped

(* ------------------------------------------------------------------ *)
(* Ablations (Section V-E design choices).                             *)

let ablation_broadcast scale =
  section
    "Ablation: clients broadcast transactions to all replicas vs sending \
     to one (HotStuff, n=4)";
  let config = base_config scale in
  let cap = capacity config in
  let combos =
    List.concat_map
      (fun frac -> List.map (fun broadcast -> (frac, broadcast)) [ false; true ])
      [ 0.3; 0.8 ]
  in
  let results =
    run_cells summary_of
      (List.map
         (fun (frac, broadcast) ->
           (config, Workload.open_loop ~broadcast ~rate:(frac *. cap) (), None))
         combos)
  in
  let rows =
    List.map2
      (fun (frac, broadcast) (s : Metrics.summary) ->
        [
          Printf.sprintf "%.0f%% load" (100.0 *. frac);
          (if broadcast then "broadcast" else "single");
          ktx s.Metrics.throughput;
          ms s.Metrics.latency_mean;
          ms s.Metrics.latency_p95;
        ])
      combos results
  in
  Table.print ~header:[ "load"; "mode"; "thr(k)"; "lat(ms)"; "p95(ms)" ] ~rows;
  print_endline
    "broadcast submission removes the wait for the submitting replica's\n\
     leadership turn (lower latency at light load) but fills blocks with\n\
     duplicates, cutting usable capacity at high load."

let ablation_election scale =
  section
    "Ablation: leader election scheme (HotStuff, n=4): round-robin vs \
     hash-based vs static leader";
  let config = base_config scale in
  let rate = 0.5 *. capacity config in
  let schemes =
    [
      ("rotation", Config.Rotation);
      ("hashed", Config.Hashed);
      ("static(0)", Config.Static 0);
    ]
  in
  let results =
    run_cells summary_of
      (List.map
         (fun (_, election) ->
           ({ config with Config.election }, Workload.open_loop ~rate (), None))
         schemes)
  in
  let rows =
    List.map2
      (fun (name, _) (s : Metrics.summary) ->
        [ name; ktx s.Metrics.throughput; ms s.Metrics.latency_mean ])
      schemes results
  in
  Table.print ~header:[ "election"; "thr(k)"; "lat(ms)" ] ~rows;
  print_endline
    "note: clients submit to uniformly random replicas, so under a static\n\
     leader only the leader's own mempool ever drains (~1/n of the load\n\
     commits) - static deployments must redirect clients to the leader."

let ablation_echo scale =
  section
    "Ablation: Streamlet with and without message echoing (n=8): the cost \
     of O(n^3) communication in isolation";
  let config =
    { (base_config scale) with protocol = Config.Streamlet; n = 8 }
  in
  let rate = 0.5 *. capacity config in
  let modes = [ true; false ] in
  let results =
    run_cells summary_of
      (List.map
         (fun echo ->
           ( { config with Config.echo = Some echo },
             Workload.open_loop ~rate (),
             None ))
         modes)
  in
  let rows =
    List.map2
      (fun echo (s : Metrics.summary) ->
        [
          (if echo then "echo on" else "echo off");
          ktx s.Metrics.throughput;
          ms s.Metrics.latency_mean;
        ])
      modes results
  in
  Table.print ~header:[ "mode"; "thr(k)"; "lat(ms)" ] ~rows

let ablation_fhs scale =
  section
    "Ablation: Fast-HotStuff vs two-chain HotStuff vs HotStuff, happy \
     path and under silence attack (n=8)";
  let variants =
    [ Config.Hotstuff; Config.Twochain; Config.Fasthotstuff ]
  in
  let combos =
    List.concat_map
      (fun (label, byz_no, strategy, timeout) ->
        List.map
          (fun protocol ->
            let config =
              {
                (base_config scale) with
                protocol;
                n = 8;
                byz_no;
                strategy;
                timeout;
                tc_adopt_qc = (protocol = Config.Fasthotstuff);
              }
            in
            let rate = 0.4 *. capacity config in
            (label, protocol, config, rate))
          variants)
      [
        ("happy", 0, Config.Honest, 0.1);
        ("silence-2", 2, Config.Silence, 0.05);
      ]
  in
  let results =
    run_cells summary_of
      (List.map
         (fun (_, _, config, rate) ->
           (config, Workload.open_loop ~rate (), None))
         combos)
  in
  let rows =
    List.map2
      (fun (label, protocol, _, _) (s : Metrics.summary) ->
        [
          label;
          Config.protocol_name protocol;
          ktx s.Metrics.throughput;
          ms s.Metrics.latency_mean;
          Table.fmt_float ~decimals:2 s.Metrics.block_interval;
        ])
      combos results
  in
  Table.print
    ~header:[ "scenario"; "protocol"; "thr(k)"; "lat(ms)"; "BI" ]
    ~rows

let ablation_backoff scale =
  section
    "Ablation: pacemaker timer backoff under mis-set timeouts (HotStuff,      n=4, view timeout 10 ms, added network delay 10 ms)";
  let config =
    {
      (base_config scale) with
      timeout = 0.010;
      extra_delay_mu = 0.010;
      extra_delay_sigma = 0.0;
    }
  in
  let rate = 0.1 *. capacity config in
  let backoffs = [ 1.0; 1.5; 2.0 ] in
  let results =
    run_cells summary_of
      (List.map
         (fun backoff ->
           ({ config with Config.backoff }, Workload.open_loop ~rate (), None))
         backoffs)
  in
  let rows =
    List.map2
      (fun backoff (s : Metrics.summary) ->
        [
          Printf.sprintf "backoff x%.1f" backoff;
          ktx s.Metrics.throughput;
          ms s.Metrics.latency_mean;
          Table.fmt_float ~decimals:3 s.Metrics.cgr;
          string_of_int s.Metrics.views;
        ])
      backoffs results
  in
  Table.print ~header:[ "pacemaker"; "thr(k)"; "lat(ms)"; "CGR"; "views" ] ~rows;
  print_endline
    "with the view timer below the actual network round trip, fixed timers\n\
     keep expiring before proposals land: views churn, accepted blocks get\n\
     overwritten (CGR well below 1) and at higher request rates progress\n\
     stops entirely; geometric backoff stretches the timers until proposals\n\
     fit, and resets them on every QC, restoring CGR = 1."

(* ------------------------------------------------------------------ *)
(* Chaos experiments (bamboo_faults): the scenarios PAPERS.md's
   "Unraveling Responsiveness" line of work studies — delay that targets
   a leader slot rather than the whole network — and partition-heal
   liveness recovery.                                                  *)

let chaos_leader_delay scale =
  section
    "Chaos: extra delay on replica 0's outbound links only; rotating \
     leadership meets a slow leader every n-th view (timeout 100 ms)";
  let delays = [ 0.0; 0.020; 0.150 ] in
  let combos =
    List.concat_map
      (fun protocol ->
        List.map
          (fun d ->
            let faults =
              if d = 0.0 then []
              else
                [
                  {
                    Schedule.at = 0.0;
                    until = None;
                    spec =
                      Schedule.Link_delay
                        {
                          src = Schedule.Nodes [ 0 ];
                          dst = Schedule.All;
                          mu = d;
                          sigma = 0.1 *. d;
                        };
                  };
                ]
            in
            let config = { (base_config scale) with protocol; faults } in
            let rate = 0.5 *. capacity config in
            (protocol, d, config, rate))
          delays)
      protocols
  in
  let results =
    run_cells summary_of
      (List.map
         (fun (_, _, config, rate) ->
           (config, Workload.open_loop ~rate (), None))
         combos)
  in
  let rows =
    List.map2
      (fun (protocol, d, _, _) (s : Metrics.summary) ->
        (* A saturated run commits only backlog issued during warmup, so
           no latency sample exists: the latency is divergent, not zero. *)
        let lat x =
          if s.Metrics.latency_mean = 0.0 && s.Metrics.throughput > 0.0 then
            "div."
          else ms x
        in
        [
          Config.protocol_name protocol;
          Printf.sprintf "%.0f" (d *. 1000.0);
          ktx s.Metrics.throughput;
          lat s.Metrics.latency_mean;
          lat s.Metrics.latency_p95;
          Table.fmt_float ~decimals:3 s.Metrics.cgr;
          string_of_int s.Metrics.views;
        ])
      combos results
  in
  Table.print
    ~header:
      [ "protocol"; "delay(ms)"; "thr(k)"; "lat(ms)"; "p95(ms)"; "CGR"; "views" ]
    ~rows;
  print_endline
    "a sub-timeout delay (20 ms) taxes only the slow replica's own views;\n\
     a super-timeout delay (150 ms > 100 ms) makes every one of its views\n\
     expire, so each rotation pays a timeout: the view rate collapses by\n\
     an order of magnitude and committed throughput falls below the\n\
     arrival rate, at which point the backlog grows without bound and\n\
     commit latency diverges (`div.`: no transaction issued after warmup\n\
     ever committed)."

let chaos_partition_heal scale =
  section
    "Chaos: partition {0,1} | {2,3} from t=3s to t=6s; no quorum of 3 \
     exists, commits stall, and liveness must return after the heal";
  ignore scale;
  let t0 = 3.0 and t1 = 6.0 in
  let bucket = 0.25 in
  let cell_of protocol =
    let config =
      {
        (base_config Quick) with
        protocol;
        runtime = 10.0;
        warmup = 0.5;
        faults =
          [
            {
              Schedule.at = t0;
              until = Some t1;
              spec = Schedule.Partition { a = [ 0; 1 ]; b = [ 2; 3 ] };
            };
          ];
      }
    in
    let rate = 0.5 *. capacity config in
    (config, Workload.open_loop ~rate (), Some bucket)
  in
  let results = run_cells series_of (List.map cell_of protocols) in
  let rows =
    List.map2
      (fun protocol series ->
        (* Messages already on the wire when the links go down can still
           complete a commit; they all land in the first bucket after the
           cut, so report that drain separately from the steady state. *)
        let straggler_txs =
          List.fold_left
            (fun acc (t, thr) ->
              if t >= t0 && t < t0 +. bucket then acc +. (thr *. bucket)
              else acc)
            0.0 series
        in
        let txs_during =
          List.fold_left
            (fun acc (t, thr) ->
              if t >= t0 +. bucket && t < t1 then acc +. (thr *. bucket)
              else acc)
            0.0 series
        in
        let first_commit_after =
          List.find_opt (fun (t, thr) -> t >= t1 && thr > 0.0) series
        in
        let ttfc =
          match first_commit_after with
          | Some (t, _) -> Printf.sprintf "< %.0f" ((t -. t1 +. bucket) *. 1000.0)
          | None -> "never"
        in
        let tail =
          List.filter_map
            (fun (t, thr) -> if t >= 8.0 then Some thr else None)
            series
        in
        let tail_mean =
          List.fold_left ( +. ) 0.0 tail /. float_of_int (List.length tail)
        in
        [
          Config.protocol_name protocol;
          Printf.sprintf "%.0f" straggler_txs;
          Printf.sprintf "%.0f" txs_during;
          ttfc;
          ktx tail_mean;
        ])
      protocols results
  in
  Table.print
    ~header:
      [ "protocol"; "in-flight drain(tx)"; "txs committed in partition";
        "first commit after heal (ms)"; "tail thr(k)" ]
    ~rows;
  print_endline
    "during the partition neither side holds a quorum (2 of 4 < 3): once\n\
     messages that were already on the wire drain (first 250 ms bucket),\n\
     views churn on timeouts and nothing commits; when the partition\n\
     heals the first timeout re-synchronizes the halves and committed\n\
     throughput returns to the arrival rate."

(* ------------------------------------------------------------------ *)

let registry =
  [
    ("table2", table2);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fig15);
    ("ablation_broadcast", ablation_broadcast);
    ("ablation_election", ablation_election);
    ("ablation_echo", ablation_echo);
    ("ablation_fhs", ablation_fhs);
    ("ablation_backoff", ablation_backoff);
    ("chaos_leader_delay", chaos_leader_delay);
    ("chaos_partition_heal", chaos_partition_heal);
  ]

let names = List.map fst registry

let run_one ?jobs ~scale name =
  (match jobs with Some j -> set_jobs j | None -> ());
  match List.assoc_opt name registry with
  | Some f ->
      f scale;
      Ok ()
  | None ->
      Error
        (Printf.sprintf "unknown experiment %S (known: %s)" name
           (String.concat ", " names))

let run_all ?jobs ~scale () =
  (match jobs with Some j -> set_jobs j | None -> ());
  List.iter (fun (_, f) -> f scale) registry
