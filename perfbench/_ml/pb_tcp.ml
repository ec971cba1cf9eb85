(* tcp_n4: an in-process cluster of four replicas,
   [Threaded_runtime.Make_batched (Tcp_transport)] on loopback, with real
   HMAC verification, Merkle roots, [Codec] framing and [Kvstore]
   execution. One generator thread offers a seeded Poisson open loop of
   [Kvstore.Put] transactions at a fixed rate well below saturation and
   an observer watches for their commits (see {!Pb_openloop}). *)

open Bamboo_types
module Tcp = Bamboo_network.Tcp_transport
module Trace = Bamboo_obs.Trace
module Kvstore = Bamboo.Kvstore
module Stats = Bamboo_util.Stats

let replicas = 4
let rate = 5000.0
let limit = 2.0 (* seconds from due time; a later commit counts as failed *)
let key_space = 4096
let now = Unix.gettimeofday

let config =
  { Bamboo.Config.default with protocol = Bamboo.Config.Hotstuff; n = replicas }

(* ------------------------------------------------------------------ *)
(* The benchmark's timing wrapper around the transport (traced pass
   only). Counters are atomics: [send] runs on replica threads and, via
   [submit_admission], on the generator thread. *)

module Probe = struct
  let sends = Atomic.make 0 (* messages, a broadcast counts n - 1 *)
  let send_calls = Atomic.make 0
  let send_ns = Atomic.make 0
  let bytes = Atomic.make 0
  let recv_batches = Atomic.make 0
  let recv_msgs = Atomic.make 0
  let recv_ns = Atomic.make 0

  let all =
    [ sends; send_calls; send_ns; bytes; recv_batches; recv_msgs; recv_ns ]

  let reset () = List.iter (fun a -> Atomic.set a 0) all
  let add a k = ignore (Atomic.fetch_and_add a k : int)
  let ns_since t0 = int_of_float ((now () -. t0) *. 1e9)
end

module Timed = struct
  type t = Tcp.t

  let self = Tcp.self
  let n = Tcp.n
  let recv = Tcp.recv
  let close = Tcp.close

  let sent t ~copies ~t0 msg =
    Probe.add Probe.send_ns (Probe.ns_since t0);
    Probe.add Probe.send_calls 1;
    Probe.add Probe.sends copies;
    Probe.add Probe.bytes (copies * String.length (Codec.encode msg));
    ignore (t : t)

  let send t ~dst msg =
    let t0 = now () in
    Tcp.send t ~dst msg;
    sent t ~copies:1 ~t0 msg

  let broadcast t msg =
    let t0 = now () in
    Tcp.broadcast t msg;
    sent t ~copies:(Tcp.n t - 1) ~t0 msg

  let recv_batch t ~timeout_s ~max =
    let t0 = now () in
    let msgs = Tcp.recv_batch t ~timeout_s ~max in
    Probe.add Probe.recv_ns (Probe.ns_since t0);
    (match msgs with
    | [] -> ()
    | l ->
        Probe.add Probe.recv_batches 1;
        Probe.add Probe.recv_msgs (List.length l));
    msgs
end

module type RT =
  Bamboo.Threaded_runtime.RUNTIME with type endpoint = Tcp.t

module Plain : RT = Bamboo.Threaded_runtime.Make_batched (Tcp)
module Traced : RT = Bamboo.Threaded_runtime.Make_batched (Timed)

(* ------------------------------------------------------------------ *)
(* Cluster set-up: endpoints, start, and one committed probe transaction.
   Everything up to here is set-up; the timed window starts after. *)

(* Distinct free loopback ports: bind all to port 0 at once, then release. *)
let free_ports k =
  let socks =
    List.init k (fun _ ->
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        s)
  in
  let ports =
    List.map
      (fun s ->
        match Unix.getsockname s with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> assert false)
      socks
  in
  List.iter Unix.close socks;
  ports

let put_tx ~seq ~key ~value =
  Tx.make_with_data ~client:1 ~seq
    ~data:(Kvstore.encode_command (Kvstore.Put { key; value }))

type 'c cluster = {
  rt : (module RT with type cluster = 'c);
  c : 'c;
  endpoints : Tcp.t array;
}

let start (type c) (module R : RT with type cluster = c) ?traces () =
  let addresses =
    List.mapi
      (fun i p -> (i, Unix.ADDR_INET (Unix.inet_addr_loopback, p)))
      (free_ports replicas)
  in
  let endpoints = Array.init replicas (fun self -> Tcp.create ~self ~addresses ()) in
  let c = R.start ?traces ~config ~endpoints () in
  let probe = put_tx ~seq:0 ~key:"probe" ~value:"0" in
  if R.submit_admission c ~replica:0 [ probe ] <> 1 then
    failwith "probe transaction rejected";
  if not (R.wait_committed c ~count:1 ~timeout_s:10.0) then
    failwith "probe transaction never committed";
  { rt = (module R); c; endpoints }

let stop (type c) (cl : c cluster) =
  let (module R) = cl.rt in
  R.stop cl.c

(* ------------------------------------------------------------------ *)
(* One timed pass *)

type pass = {
  t0 : float;  (* window opens *)
  rate : float;  (* intended offered rate, tx/s *)
  duration : float;  (* intended window, seconds *)
  plan : Pb_openloop.plan;
  obs : Pb_openloop.observer;
  gen : Pb_openloop.gen_stats;
  report : Bamboo.Threaded_runtime.report;
  wall_s : float;  (* window open -> last commit observed *)
  cpu_s : float;  (* process CPU seconds over the window and drain *)
  tcp : Tcp.stats array;
  errors : string list;
}

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let keys ~seed n =
  let rng = Bamboo_util.Rng.create ~seed:(seed + 1) in
  Array.init n (fun _ -> Printf.sprintf "k%d" (Bamboo_util.Rng.int rng key_space))

(* Every value in replica 0's store must be the value of a committed Put
   the generator issued for that key. *)
let check_kv (type c) (cl : c cluster) ~keys ~committed =
  let (module R) = cl.rt in
  let issued = Hashtbl.create key_space in
  Array.iter (fun k -> Hashtbl.replace issued k ()) keys;
  Hashtbl.fold
    (fun key () errs ->
      match R.kv_get cl.c ~replica:0 key with
      | None -> errs
      | Some v -> (
          match int_of_string_opt (String.sub v 1 (String.length v - 1)) with
          | Some i when i >= 0 && i < Array.length keys && keys.(i) = key && committed.(i)
            ->
              errs
          | _ -> Printf.sprintf "key %s holds %S, not a committed issued value" key v :: errs))
    issued []

let run_pass (type c) (cl : c cluster) ~seed ~rate ~duration =
  let (module R) = cl.rt in
  let plan = Pb_openloop.plan ~seed ~rate ~duration ~replicas in
  let n = Array.length plan.Pb_openloop.due in
  let keys = keys ~seed n in
  let obs = Pb_openloop.observer ~replicas ~limit in
  let gen = Pb_openloop.gen_stats () in
  let make i = put_tx ~seq:(i + 1) ~key:keys.(i) ~value:(Printf.sprintf "v%d" i) in
  let t0 = now () +. 0.005 in
  obs.Pb_openloop.window_end <- t0 +. duration;
  let cpu0 = cpu_now () in
  let committed id = R.tx_committed cl.c id in
  let deadline = t0 +. duration +. limit +. 1.0 in
  (* The client side (generator thread and observer loop) runs on a
     domain of its own: on the cluster's domain it would queue behind the
     replica threads for the runtime lock, as a real client in another
     process does not. [submit_admission] and [tx_committed] lock the
     runtime's own mutexes, so calling them from here is safe. *)
  let client =
    Domain.spawn (fun () ->
        let done_ = Atomic.make false in
        let generator =
          Thread.create
            (fun () ->
              Pb_openloop.drive ~clock:now ~sleep:Thread.delay ~t0 ~plan ~make
                ~submit:(fun ~replica txs -> R.submit_admission cl.c ~replica txs)
                ~obs ~stats:gen;
              Atomic.set done_ true)
            ()
        in
        (* The window lasts [duration] even with nothing to offer (the
           zero-load twin), then drains until every offered tx is
           resolved. *)
        while
          now () < t0 +. duration
          || (not (Atomic.get done_))
          || (Pb_openloop.outstanding obs > 0 && now () < deadline)
        do
          Thread.delay 0.001;
          Pb_openloop.poll obs ~now:(now ()) ~committed
        done;
        Thread.join generator)
  in
  Domain.join client;
  Pb_openloop.finish obs;
  let cpu_s = cpu_now () -. cpu0 in
  let report = R.stop cl.c in
  let committed_ids = Array.init n (fun i -> committed { Tx.client = 1; seq = i + 1 }) in
  let issued_committed = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 committed_ids in
  let errors =
    List.concat
      [
        (if report.Bamboo.Threaded_runtime.consistent then [] else [ "replicas' chains disagree" ]);
        (if report.kv_consistent then [] else [ "replicas' key-value stores disagree" ]);
        (if report.any_violation then [ "a replica reported a safety violation" ] else []);
        (* The probe plus the generator's txs: anything else committed is
           an id nobody issued. *)
        (if report.committed_txs = issued_committed + 1 then []
         else
           [
             Printf.sprintf "%d txs committed but only %d issued ones (+1 probe)"
               report.committed_txs issued_committed;
           ]);
        check_kv cl ~keys ~committed:committed_ids;
      ]
  in
  let wall_s =
    if Float.is_nan obs.Pb_openloop.last_commit_seen then duration
    else obs.Pb_openloop.last_commit_seen -. t0
  in
  {
    t0;
    rate;
    duration;
    plan;
    obs;
    gen;
    report;
    wall_s;
    cpu_s;
    tcp = Array.map Tcp.stats cl.endpoints;
    errors;
  }

let ms x = x *. 1000.0

let pct = Pb_stats.percentile

let offered p = Array.length p.plan.Pb_openloop.due

(* The offered rate the generator really achieved: arrivals over the time
   from window open to its final submission. *)
let achieved_rate p =
  if offered p = 0 then 0.0
  else float_of_int (offered p) /. (p.gen.Pb_openloop.last_submit -. p.t0)

(* Open-loop honesty, printed on every run. *)
let describe name p =
  let lat = p.obs.Pb_openloop.latency in
  let late = p.gen.Pb_openloop.lateness in
  let gaps = p.obs.Pb_openloop.gaps in
  let show a q = match pct a q with Ok v -> Printf.sprintf "%.3f" (ms v) | Error _ -> "n/a" in
  Printf.eprintf
    "perfbench: %s: offered %d txs, %.0f tx/s achieved vs %.0f intended; %d \
     latency samples, p50 %s ms, p99 %s ms; generator lateness p99 %s ms; \
     observer poll gap p99 %s ms; failed %d (late %d, lost %d), rejected %d\n\
     %!"
    name (offered p) (achieved_rate p) p.rate (Stats.count lat) (show lat 50.0)
    (show lat 99.0) (show late 99.0) (show gaps 99.0) (Pb_openloop.failed_total p.obs p.gen)
    p.obs.Pb_openloop.late p.obs.Pb_openloop.lost p.gen.Pb_openloop.rejected

let peak_heap_mb = Pb_sim.peak_heap_mb

let observed_commits p = p.obs.Pb_openloop.ok + p.obs.Pb_openloop.late

(* [part] numbers the runner's measurement processes; each offers its own
   arrivals. *)
let measure cl ~seed ~part ~seconds =
  let p = run_pass cl ~seed:((seed * 64) + part) ~rate ~duration:seconds in
  describe "tcp_n4" p;
  (* The cluster has stopped: time the machine's thread hops now. *)
  let scale = Pb_hops.scale () in
  Printf.eprintf "perfbench: tcp_n4: latencies scaled by %.3f for the host's thread-hop speed\n%!"
    scale;
  let lat = p.obs.Pb_openloop.latency in
  let pct_ms q errs =
    match pct lat q with
    | Ok v -> (ms v *. scale, errs)
    | Error e -> (0.0, Printf.sprintf "latency p%g: %s" q e :: errs)
  in
  let p50, errs = pct_ms 50.0 [] in
  let errors = p.errors @ errs in
  {
    Pb_out.correct = errors = [];
    attempted = offered p;
    failed = Pb_openloop.failed_total p.obs p.gen;
    errors;
    metrics =
      Pb_out.
        [
          m "wall_s" "s" p.wall_s;
          m "peak_heap_mb" "MB" (peak_heap_mb ());
          m "commit_tps" "1/s" (float_of_int p.obs.Pb_openloop.in_window /. seconds);
          m "latency_p50_ms" "ms" p50;
        ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run: an untraced pass (the set-up cluster), a traced pass
   (timing wrapper, per-replica JSONL trace sinks, spans) and a zero-load
   twin, a third of the budget each, then the layer micro-costs. *)

(* Per-kind event counts and committed-tx total from one JSONL trace. *)
let count_trace path =
  let counts = Hashtbl.create 16 in
  let txs = ref 0 in
  let ic = open_in path in
  (try
     while true do
       let line = input_line ic in
       match Trace.event_of_json (Bamboo_util.Json.of_string line) with
       | Ok ev ->
           let k = Trace.kind_name ev.Trace.kind in
           Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k));
           if ev.Trace.kind = Trace.Commit then
             txs :=
               !txs
               + (match List.assoc_opt "txs" ev.Trace.args with
                 | Some (Bamboo_util.Json.Int k) -> k
                 | _ -> 0)
       | Error e -> failwith ("unreadable trace line: " ^ e)
     done
   with End_of_file -> ());
  close_in ic;
  ((fun k -> Option.value ~default:0 (Hashtbl.find_opt counts k)), !txs)

let measure_traced cl_a ~seed ~seconds ~spans ~workdir =
  let third = seconds /. 3.0 in
  let a =
    Pb_spans.with_span spans "untraced pass" (fun _ ->
        run_pass cl_a ~seed ~rate ~duration:third)
  in
  describe "untraced pass" a;
  let scale_a = Pb_hops.scale () in
  let paths = Array.init replicas (fun i -> Filename.concat workdir (Printf.sprintf "trace-%d.jsonl" i)) in
  let chans = Array.map open_out paths in
  Probe.reset ();
  let b =
    Pb_spans.with_span spans "traced pass" (fun parent ->
        let cl =
          Pb_spans.with_span spans ~parent "set-up" (fun _ ->
              start (module Traced) ~traces:(Array.map Trace.jsonl chans) ())
        in
        Pb_spans.with_span spans ~parent "window" (fun _ ->
            run_pass cl ~seed ~rate ~duration:third))
  in
  Array.iter close_out chans;
  describe "traced pass" b;
  let counted = Array.map count_trace paths in
  Array.iter Sys.remove paths;
  let count k = Array.fold_left (fun acc (f, _) -> acc + f k) 0 counted in
  let block_txs = Array.fold_left (fun acc (_, t) -> acc + t) 0 counted in
  let c =
    Pb_spans.with_span spans "zero-load twin" (fun _ ->
        let cl = start (module Plain) () in
        run_pass cl ~seed ~rate:0.0 ~duration:third)
  in
  let commits = count "commit" in
  let mean_block = if commits = 0 then 1 else block_txs / commits in
  let costs =
    Pb_spans.with_span spans "micro" (fun _ ->
        Pb_micro.measure
          {
            Pb_micro.n = replicas;
            psize = String.length (Kvstore.encode_command (Kvstore.Put { key = "k1000"; value = "v10000" }));
            block_txs = max 1 mean_block;
            queue_depth = 64;
          })
  in
  let errors = a.errors @ b.errors @ c.errors in
  let fsum f arr = Array.fold_left (fun acc s -> acc + f s) 0 arr in
  let views = float_of_int (count "view_change") /. float_of_int replicas in
  let blocks = float_of_int (count "commit") /. float_of_int replicas in
  let proposals = float_of_int (count "proposal_sent") in
  let signs = count "vote_sent" + count "proposal_sent" + count "timeout_fired" in
  let submit = a.gen.Pb_openloop.submit_s in
  let pct_us q = match pct submit q with Ok v -> v *. 1e6 | Error _ -> Float.nan in
  let lateness = a.gen.Pb_openloop.lateness in
  let gaps = a.obs.Pb_openloop.gaps in
  let p99_ms arr = match pct arr 99.0 with Ok v -> ms v | Error _ -> Float.nan in
  let tx_a = float_of_int (max 1 (observed_commits a)) in
  let tx_b = float_of_int (max 1 (observed_commits b)) in
  let get = Atomic.get in
  (* CPU attributed to measured unit costs over the traced pass. *)
  let attributed =
    (float_of_int (get Probe.send_ns) *. 1e-9)
    +. proposals
       *. (costs.Pb_micro.block_create_merkle_us +. costs.Pb_micro.codec_encode_block_us
          +. (float_of_int (replicas - 1) *. costs.Pb_micro.codec_decode_block_us))
       *. 1e-6
    +. (float_of_int (2 * signs) *. costs.Pb_micro.hmac_ns *. 1e-9)
    +. tx_b
       *. (costs.Pb_micro.tx_make_ns +. costs.Pb_micro.mempool_add_batch_ns_per_tx)
       *. 1e-9
  in
  let failed = Pb_openloop.failed_total a.obs a.gen + Pb_openloop.failed_total b.obs b.gen in
  let offered_ab = offered a + offered b in
  {
    Pb_out.correct = errors = [];
    attempted = offered_ab;
    failed;
    errors;
    metrics =
      Pb_out.
        [
          m "net.sends_per_view" "count" (float_of_int (get Probe.sends) /. views);
          m "runtime.msg_path_share" "ratio" (c.cpu_s /. a.cpu_s);
          m "runtime.msg_path_us_per_event" "us"
            (c.cpu_s /. float_of_int (max 1 (fsum (fun s -> s.Tcp.recv_msgs) c.tcp)) *. 1e6);
          m "runtime.tx_path_us_per_tx" "us" ((a.cpu_s -. c.cpu_s) /. tx_a *. 1e6);
          m "mempool.batch_fill" "ratio"
            (float_of_int block_txs /. float_of_int (max 1 (count "commit"))
            /. float_of_int config.Bamboo.Config.bsize);
          m "ingest.submit_us_p50" "us" (pct_us 50.0);
          m "ingest.submit_us_p99" "us" (pct_us 99.0);
          m "ingest.rejected" "count" (float_of_int a.gen.Pb_openloop.rejected);
          m "crypto.signs_per_view" "count" (float_of_int signs /. views);
          m "transport.sends_per_block" "count" (float_of_int (get Probe.sends) /. blocks);
          m "transport.bytes_per_tx" "B" (float_of_int (get Probe.bytes) /. tx_b);
          m "transport.send_us" "us"
            (float_of_int (get Probe.send_ns) /. float_of_int (max 1 (get Probe.send_calls)) /. 1e3);
          m "transport.recv_batch_mean" "count"
            (float_of_int (get Probe.recv_msgs) /. float_of_int (max 1 (get Probe.recv_batches)));
          m "transport.recv_wait_share" "ratio"
            (float_of_int (get Probe.recv_ns) *. 1e-9 /. (float_of_int replicas *. b.wall_s));
          m "transport.inbox_peak" "count"
            (float_of_int (Array.fold_left (fun acc s -> max acc s.Tcp.peak_depth) 0 b.tcp));
          m "transport.dropped" "count"
            (float_of_int (fsum (fun s -> s.Tcp.dropped_full + s.Tcp.recv_dropped) b.tcp));
          m "replica.view_changes" "count" (float_of_int (count "view_change"));
          m "replica.timeouts" "count" (float_of_int (count "timeout_fired"));
          m "consensus.blocks_per_s" "1/s" (blocks /. b.wall_s);
          m "layer.residual_share" "ratio" (1.0 -. (attributed /. b.cpu_s));
          m "trace.overhead_share" "ratio" ((b.cpu_s /. tx_b) /. (a.cpu_s /. tx_a) -. 1.0);
          m "failed_ratio" "ratio" (float_of_int failed /. float_of_int (max 1 offered_ab));
          m "latency.samples" "count" (float_of_int (Stats.count a.obs.Pb_openloop.latency));
          m "latency_p99_ms" "ms" (p99_ms a.obs.Pb_openloop.latency *. scale_a);
          m "gen.lateness_p99_ms" "ms" (p99_ms lateness);
          m "gen.offered_ratio" "ratio" (achieved_rate a /. rate);
          m "observer.poll_gap_p99_ms" "ms" (p99_ms gaps);
        ]
      @ Pb_micro.metrics costs;
  }
