(* The two simulator workloads.

   sim_table2 is the paper's Table II sweep at quick scale: HotStuff,
   n = 4, bsize 400, psize 0, seven open-loop rates from 0.15 to 0.98 of
   the model's capacity, run through [Experiments.sweep] (the call that
   [Experiments.table2_rows] formats) on every pool domain. Its rows are
   gated against the rows recorded from the parent revision.

   sim_n64_lowload is one HotStuff cell at Fig. 12 settings (n = 64,
   psize 128, bsize 400) at 300 tx/s on one domain, so the per-message
   path dominates. Its fingerprint (committed txs, views, simulator
   events, virtual p50) is gated the same way. *)

open Bamboo
module Snapshot = Bamboo_metrics.Snapshot
module Registry = Bamboo_metrics.Registry
module Pool = Bamboo_util.Pool

type kind = Table2 | N64

(* [Experiments.table2_rows]' fractions and [capacity] are not exported;
   these copies are checked by the selftest, which compares the rows
   recorded for seed 42 with what [Experiments.table2_rows] prints. *)
let table2_fractions = [ 0.15; 0.3; 0.45; 0.6; 0.75; 0.9; 0.98 ]

(* The cell whose virtual latency the sweep reports end to end. *)
let table2_latency_cell = 3 (* 0.6 of capacity *)

let n64_rate = 300.0

let config kind ~cfg_seed =
  match kind with
  | Table2 ->
      (* [Experiments]' quick-scale base: 3 virtual seconds, 0.5 warmup. *)
      {
        Config.default with
        protocol = Config.Hotstuff;
        runtime = 3.0;
        warmup = 0.5;
        seed = cfg_seed;
      }
  | N64 ->
      {
        Config.default with
        protocol = Config.Hotstuff;
        n = 64;
        psize = 128;
        bsize = 400;
        runtime = 6.0;
        warmup = 1.0;
        seed = cfg_seed;
      }

let capacity config =
  let m = Model.build ~config in
  Float.min m.Model.saturation_rate (Model.sim_saturation_rate ~config)

let jobs = function Table2 -> Pool.recommended_jobs () | N64 -> 1

type ctx = {
  kind : kind;
  cfg_seed : int;
  config : Config.t;
  rates : float list;
  jobs : int;
}

let prepare kind ~seed =
  let cfg_seed = Pb_gate.config_seed seed in
  let config = config kind ~cfg_seed in
  let rates =
    match kind with
    | Table2 ->
        let cap = capacity config in
        List.map (fun f -> f *. cap) table2_fractions
    | N64 -> [ n64_rate ]
  in
  let jobs = jobs kind in
  Experiments.set_jobs jobs;
  { kind; cfg_seed; config; rates; jobs }

type cell = { rate : float; summary : Metrics.summary; events : int }

(* Formatted exactly as [Experiments.table2_rows] formats them. *)
let table2_rows cells =
  List.map
    (fun c ->
      [ Printf.sprintf "%.0f" c.rate; Printf.sprintf "%.0f" c.summary.Metrics.throughput ])
    cells

let fingerprint c =
  {
    Pb_gate.txs = c.summary.Metrics.committed_txs;
    views = c.summary.Metrics.views;
    events = c.events;
    p50_ms = c.summary.Metrics.latency_p50 *. 1000.0;
  }

let gate ctx cells =
  match ctx.kind with
  | Table2 ->
      Pb_gate.check ~what:"table2 rows" ~table:Pb_expected.table2
        ~cfg_seed:ctx.cfg_seed
        (Pb_gate.rows_key (table2_rows cells))
  | N64 ->
      Pb_gate.check ~what:"n64 fingerprint" ~table:Pb_expected.n64
        ~cfg_seed:ctx.cfg_seed
        (Pb_gate.fingerprint_key (fingerprint (List.hd cells)))

let now = Unix.gettimeofday

(* The cell whose virtual latency a workload reports. *)
let latency_cell ctx cells =
  match ctx.kind with Table2 -> List.nth cells table2_latency_cell | N64 -> List.hd cells

(* One unit of the fixed output, untraced: the Table II sweep through the
   experiment driver, or the single n64 cell. *)
let untraced_unit ctx =
  match ctx.kind with
  | Table2 ->
      List.map
        (fun (rate, summary) -> { rate; summary; events = -1 })
        (Experiments.sweep ~config:ctx.config ~rates:ctx.rates)
  | N64 ->
      let r =
        Runtime.run ~config:ctx.config
          ~workload:(Workload.open_loop ~rate:n64_rate ())
          ()
      in
      [ { rate = n64_rate; summary = r.Runtime.summary; events = r.Runtime.sim_events } ]

(* What the traced run keeps of a cell's three runs (not the whole
   results: their ledgers would pin hundreds of megabytes). *)
type traced_cell = {
  cell : cell;  (** Run with a metrics registry, in a span. *)
  metrics : Snapshot.t;
  wall : float;
  plain : cell;  (** The same cell run untraced. *)
  plain_wall : float;
  twin_events : int;  (** The zero-load twin, with a registry. *)
  twin_wall : float;
  agreed : bool;  (** Replicas agreed and none violated safety, in both traced runs. *)
}

(* Every cell of a unit runs three times on the same pool domain: untraced
   and with a metrics registry (observe-only) inside a span, in an order
   that alternates by cell and [round] so that neither always finds the
   heap the other grew; then its zero-load twin (same configuration, no
   client arrivals). Adjacent runs see the same machine, so the tracing
   overhead and the twin's share compare like with like. *)
let traced_unit ctx spans ~parent ~round =
  Pool.map ~jobs:ctx.jobs
    (fun (i, rate) ->
      let run ?metrics offered =
        let t0 = now () in
        let r =
          Runtime.run ~config:ctx.config
            ~workload:(Workload.open_loop ~rate:offered ())
            ?metrics ()
        in
        (r, now () -. t0)
      in
      let traced offered =
        Pb_spans.with_span spans ~parent
          (Printf.sprintf "cell rate=%.0f offered=%.0f" rate offered)
          (fun _ -> run ~metrics:(Registry.create ()) offered)
      in
      let of_result (r : Runtime.result) =
        { rate; summary = r.Runtime.summary; events = r.Runtime.sim_events }
      in
      let (p, plain_wall), (result, wall) =
        if (i + round) mod 2 = 0 then
          let p = run rate in
          (p, traced rate)
        else
          let t = traced rate in
          (run rate, t)
      in
      let twin, twin_wall = traced 0.0 in
      let agreed (r : Runtime.result) = r.Runtime.consistent && not r.Runtime.any_violation in
      {
        cell = of_result result;
        metrics = result.Runtime.metrics;
        wall;
        plain = of_result p;
        plain_wall;
        twin_events = twin.Runtime.sim_events;
        twin_wall;
        agreed = agreed result && agreed twin;
      })
    (List.mapi (fun i rate -> (i, rate)) ctx.rates)

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let first_unit_heap_mb = ref 0.0

(* Repeat [unit] while another repetition, as long as the last one, still
   ends by [until] (at least once); returns (wall, output) per repetition,
   each timed by {!Pb_calib.timed}. *)
let repeat ~until unit =
  let rec go acc =
    let out, wall = Pb_calib.timed unit in
    (* The heap high-water mark of producing the output once, from a
       fresh process: later repetitions only add GC-timing noise. *)
    if List.is_empty acc then first_unit_heap_mb := peak_heap_mb ();
    let acc = (wall, out) :: acc in
    if now () +. wall > until then List.rev acc else go acc
  in
  let units = go [] in
  Printf.eprintf "perfbench: unit walls (s):%s; kernel median %.4f s\n%!"
    (String.concat "" (List.map (fun (w, _) -> Printf.sprintf " %.3f" w) units))
    (Pb_stats.median !Pb_calib.samples);
  units

let gate_all ctx units =
  List.filter_map
    (fun (_, cells) -> match gate ctx cells with Ok () -> None | Error e -> Some e)
    units

let measure ctx ~seconds =
  let start = now () in
  let units = repeat ~until:(start +. seconds) (fun () -> untraced_unit ctx) in
  let errors = gate_all ctx units in
  let wall_s = Pb_calib.normalise (Pb_stats.median (List.map fst units)) in
  let cells = snd (List.hd units) in
  let committed =
    List.fold_left (fun acc c -> acc + c.summary.Metrics.committed_txs) 0 cells
  in
  let s = (latency_cell ctx cells).summary in
  let errors =
    if Pb_stats.reportable ~n:s.Metrics.latency_samples 99.0 then errors
    else
      errors
      @ [
          Printf.sprintf "virtual p99 over %d samples breaks the percentile rule"
            s.Metrics.latency_samples;
        ]
  in
  let per_unit = List.length cells in
  {
    Pb_out.correct = errors = [];
    attempted = per_unit * List.length units;
    failed = per_unit * List.length (gate_all ctx units);
    errors;
    metrics =
      [
        Pb_out.m "wall_s" "s" wall_s;
        Pb_out.m "peak_heap_mb" "MB" !first_unit_heap_mb;
        Pb_out.m "commit_tps" "1/s" (float_of_int committed /. wall_s);
        Pb_out.m "latency_p50_ms" "ms" (s.Metrics.latency_p50 *. 1000.0);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer attribution *)

let counter (c : traced_cell) name = Snapshot.counter_value c.metrics name

let gauge_max (c : traced_cell) name =
  List.fold_left
    (fun acc (m : Snapshot.metric) ->
      match m.Snapshot.value with
      | Snapshot.Gauge g when String.equal m.Snapshot.name name -> Float.max acc g.max_v
      | _ -> acc)
    0.0 c.metrics.Snapshot.metrics

let sum_int f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let sum_float f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

(* Units of {!traced_unit} over two thirds of the budget, then the layer
   micro-costs. Counts come from the last unit; walls from all of them. *)
let measure_traced ctx ~seconds ~spans =
  let until = now () +. (seconds *. 2.0 /. 3.0) in
  let round = ref 0 in
  let units =
    Pb_spans.with_span spans "units" (fun parent ->
        repeat ~until (fun () ->
            incr round;
            Pb_spans.with_span spans ~parent "unit" (fun parent ->
                traced_unit ctx spans ~parent ~round:!round)))
  in
  let cells = snd (List.hd (List.rev units)) in
  let all_cells = List.concat_map snd units in
  let errors =
    gate_all ctx (List.map (fun (w, cs) -> (w, List.map (fun c -> c.cell) cs)) units)
    @ List.concat_map
        (fun c ->
          (if c.agreed then []
           else [ Printf.sprintf "cell rate=%.0f: replicas disagree" c.cell.rate ])
          @
          if fingerprint c.plain = fingerprint c.cell then []
          else [ Printf.sprintf "cell rate=%.0f: output differs with metrics on" c.cell.rate ])
        all_cells
  in
  let n = ctx.config.Config.n in
  let views =
    float_of_int (sum_int (fun c -> counter c "replica_view_changes") cells)
    /. float_of_int n
  in
  let events = sum_int (fun c -> c.cell.events) cells in
  let cell_wall = sum_float (fun c -> c.wall) all_cells in
  let twin_wall = sum_float (fun c -> c.twin_wall) all_cells in
  let twin_events = sum_int (fun c -> c.twin_events) all_cells in
  let all_committed =
    sum_int (fun c -> c.cell.summary.Metrics.committed_txs) all_cells
  in
  let committed = sum_int (fun c -> c.cell.summary.Metrics.committed_txs) cells in
  let batches = sum_int (fun c -> counter c "mempool_batches") cells in
  let batched = sum_int (fun c -> counter c "mempool_batched_txs") cells in
  let signs = sum_int (fun c -> counter c "crypto_signs") cells in
  let machine_ops =
    sum_int
      (fun c ->
        counter c "machine_cpu_ops" + counter c "machine_nic_out_ops"
        + counter c "machine_nic_in_ops")
      cells
  in
  let queue_peak =
    List.fold_left (fun acc c -> Float.max acc (gauge_max c "sim_queue_peak_depth")) 0.0 cells
  in
  let block_txs =
    if batches = 0 then 1 else int_of_float (Float.round (float_of_int batched /. float_of_int batches))
  in
  let costs =
    Pb_spans.with_span spans "micro" (fun _ ->
        Pb_micro.measure
          {
            Pb_micro.n;
            psize = ctx.config.Config.psize;
            block_txs;
            queue_depth = int_of_float queue_peak;
          })
  in
  let submit =
    Pb_spans.with_span spans "micro submit" (fun _ ->
        Pb_micro.node_submit_seconds ~config:ctx.config ~samples:1000)
  in
  let pct a p = match Pb_stats.percentile a p with Ok v -> v | Error _ -> Float.nan in
  (* Layer attribution: count x unit cost for the layers whose unit cost
     is measured above; the rest of the cells' wall time is residual. *)
  let attributed =
    (float_of_int events *. costs.Pb_micro.eventq_ns *. 1e-9)
    +. float_of_int batched
       *. (costs.Pb_micro.tx_make_ns +. costs.Pb_micro.mempool_add_batch_ns_per_tx)
       *. 1e-9
    +. float_of_int batches
       *. (costs.Pb_micro.block_create_flat_us +. costs.Pb_micro.quorum_qc_us
          +. (float_of_int n *. costs.Pb_micro.forest_add_us))
       *. 1e-6
    +. (float_of_int signs *. costs.Pb_micro.hmac_ns *. 1e-9)
  in
  let last_unit_wall = fst (List.hd (List.rev units)) in
  let traced_wall = sum_float (fun c -> c.wall) all_cells in
  let untraced_wall = sum_float (fun c -> c.plain_wall) all_cells in
  let window = sum_float (fun c -> c.cell.summary.Metrics.duration) cells in
  let offered =
    sum_float
      (fun c -> c.cell.rate *. c.cell.summary.Metrics.duration)
      cells
  in
  {
    Pb_out.correct = errors = [];
    attempted = List.length all_cells;
    failed = 0;
    errors;
    metrics =
      Pb_out.
        [
          m "sim.events" "count" (float_of_int events);
          m "latency_p99_ms" "ms"
            ((latency_cell ctx cells).cell.summary.Metrics.latency_p99 *. 1000.0);
          m "sim.events_per_s" "1/s"
            (float_of_int events /. sum_float (fun c -> c.wall) cells);
          m "sim.queue_peak" "count" queue_peak;
          m "net.sends_per_view" "count"
            (float_of_int (sum_int (fun c -> counter c "net_sends") cells) /. views);
          m "machine.ops_per_view" "count" (float_of_int machine_ops /. views);
          m "runtime.msg_path_share" "ratio" (twin_wall /. cell_wall);
          m "runtime.msg_path_us_per_event" "us"
            (twin_wall /. float_of_int twin_events *. 1e6);
          m "runtime.tx_path_us_per_tx" "us"
            ((cell_wall -. twin_wall) /. float_of_int (max 1 all_committed) *. 1e6);
          m "mempool.batch_fill" "ratio"
            (float_of_int batched /. float_of_int (max 1 batches)
            /. float_of_int ctx.config.Config.bsize);
          m "ingest.submit_us_p50" "us" (pct submit 50.0 *. 1e6);
          m "ingest.submit_us_p99" "us" (pct submit 99.0 *. 1e6);
          m "ingest.rejected" "count"
            (float_of_int (sum_int (fun c -> counter c "replica_rejected_txs") cells));
          m "crypto.signs_per_view" "count" (float_of_int signs /. views);
          m "replica.view_changes" "count"
            (float_of_int (sum_int (fun c -> counter c "replica_view_changes") cells));
          m "replica.timeouts" "count"
            (float_of_int (sum_int (fun c -> counter c "replica_timeouts_fired") cells));
          m "consensus.blocks_per_s" "1/s"
            (float_of_int
               (sum_int (fun c -> c.cell.summary.Metrics.committed_blocks) cells)
            /. window);
          m "pool.tasks" "count" (float_of_int (List.length cells));
          m "pool.task_s_max" "s"
            (List.fold_left (fun acc c -> Float.max acc c.wall) 0.0 cells);
          m "pool.efficiency" "ratio"
            (sum_float (fun c -> c.wall +. c.plain_wall +. c.twin_wall) cells
            /. (float_of_int ctx.jobs *. last_unit_wall));
          m "layer.residual_share" "ratio"
            (1.0 -. (attributed /. sum_float (fun c -> c.wall) cells));
          m "trace.overhead_share" "ratio" ((traced_wall -. untraced_wall) /. untraced_wall);
          m "latency.samples" "count"
            (float_of_int
               (sum_int (fun c -> c.cell.summary.Metrics.latency_samples) cells));
          m "gen.offered_ratio" "ratio" (float_of_int committed /. offered);
        ]
      @ Pb_micro.metrics costs;
  }
