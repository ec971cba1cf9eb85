(* End-to-end simulator runs: protocol progress, metric sanity, Byzantine
   behaviour, fault injection, determinism, and the cross-replica safety
   property under every protocol. *)

module Runtime = Bamboo.Runtime
module Workload = Bamboo.Workload
module Config = Bamboo.Config
module Schedule = Bamboo_faults.Schedule

let base =
  { Config.default with runtime = 1.5; warmup = 0.3; seed = 5 }

let run config rate =
  Runtime.run ~config ~workload:(Workload.open_loop ~rate ()) ()

let check_healthy name (r : Runtime.result) =
  Alcotest.(check bool) (name ^ ": consistent") true r.consistent;
  Alcotest.(check bool) (name ^ ": no violation") false r.any_violation

let test_happy_path_all_protocols () =
  List.iter
    (fun protocol ->
      let name = Config.protocol_name protocol in
      let r = run { base with protocol } 5000.0 in
      check_healthy name r;
      let s = r.summary in
      Alcotest.(check bool) (name ^ ": throughput tracks arrivals") true
        (Float.abs (s.throughput -. 5000.0) < 500.0);
      Alcotest.(check bool) (name ^ ": latency sane") true
        (s.latency_mean > 0.001 && s.latency_mean < 0.2);
      Alcotest.(check bool) (name ^ ": CGR ~ 1") true (s.cgr > 0.98);
      Alcotest.(check int) (name ^ ": no forks") 0 s.forked_blocks)
    [ Config.Hotstuff; Config.Twochain; Config.Streamlet; Config.Fasthotstuff ]

let test_block_interval_constants () =
  let bi protocol = (run { base with protocol } 5000.0).summary.block_interval in
  Alcotest.(check (float 0.05)) "HS BI = 3" 3.0 (bi Config.Hotstuff);
  Alcotest.(check (float 0.05)) "2CHS BI = 2" 2.0 (bi Config.Twochain);
  Alcotest.(check (float 0.05)) "SL BI = 2" 2.0 (bi Config.Streamlet)

let test_twochain_latency_below_hotstuff () =
  let lat protocol = (run { base with protocol } 5000.0).summary.latency_mean in
  Alcotest.(check bool) "one voting round cheaper" true
    (lat Config.Twochain < lat Config.Hotstuff)

let test_determinism () =
  let r1 = run base 8000.0 and r2 = run base 8000.0 in
  Alcotest.(check int) "txs identical" r1.summary.committed_txs
    r2.summary.committed_txs;
  Alcotest.(check (float 1e-12)) "latency identical" r1.summary.latency_mean
    r2.summary.latency_mean;
  let r3 = run { base with seed = 6 } 8000.0 in
  Alcotest.(check bool) "seed changes trajectory" true
    (r3.summary.committed_txs <> r1.summary.committed_txs
    || r3.summary.latency_mean <> r1.summary.latency_mean)

let test_closed_loop () =
  let r =
    Runtime.run ~config:base ~workload:(Workload.closed_loop ~clients:20) ()
  in
  check_healthy "closed loop" r;
  Alcotest.(check bool) "commits" true (r.summary.committed_txs > 0);
  Alcotest.(check bool) "latency measured" true (r.summary.latency_samples > 0)

let test_broadcast_workload () =
  let r =
    Runtime.run ~config:base
      ~workload:(Workload.open_loop ~broadcast:true ~rate:2000.0 ())
      ()
  in
  check_healthy "broadcast" r;
  (* Deduplication must prevent double commits: committed distinct txs
     cannot exceed arrivals. *)
  Alcotest.(check bool) "no duplication inflation" true
    (r.summary.throughput < 2500.0);
  Alcotest.(check bool) "commits" true (r.summary.committed_txs > 0)

let byz_base =
  {
    base with
    n = 8;
    byz_no = 2;
    runtime = 2.5;
    timeout = 0.05;
    seed = 17;
  }

let test_forking_attack_hotstuff () =
  let r = run { byz_base with strategy = Config.Fork } 4000.0 in
  check_healthy "HS fork" r;
  let s = r.summary in
  Alcotest.(check bool) "forks observed" true (s.forked_blocks > 0);
  Alcotest.(check bool) "CGR degraded" true (s.cgr < 0.9);
  Alcotest.(check bool) "BI above happy-path 3" true (s.block_interval > 3.0)

let test_forking_attack_depth_ordering () =
  let cgr protocol =
    (run { byz_base with protocol; strategy = Config.Fork } 4000.0).summary.cgr
  in
  let hs = cgr Config.Hotstuff and tchs = cgr Config.Twochain in
  Alcotest.(check bool) "2CHS more fork-resilient than HS" true (tchs > hs)

let test_forking_attack_streamlet_immune () =
  let r =
    run { byz_base with protocol = Config.Streamlet; strategy = Config.Fork }
      4000.0
  in
  check_healthy "SL fork" r;
  Alcotest.(check bool) "CGR stays 1" true (r.summary.cgr > 0.99)

let test_silence_attack () =
  let r = run { byz_base with strategy = Config.Silence } 4000.0 in
  check_healthy "HS silence" r;
  let s = r.summary in
  Alcotest.(check bool) "overwrites happen" true (s.forked_blocks > 0);
  Alcotest.(check bool) "CGR degraded" true (s.cgr < 1.0);
  Alcotest.(check bool) "BI grows" true (s.block_interval > 3.0)

let test_silence_attack_streamlet_no_forks () =
  let r =
    run { byz_base with protocol = Config.Streamlet; strategy = Config.Silence }
      4000.0
  in
  check_healthy "SL silence" r;
  Alcotest.(check int) "no forks" 0 r.summary.forked_blocks;
  Alcotest.(check bool) "CGR stays 1" true (r.summary.cgr > 0.99)

let test_crash_fault () =
  let config =
    {
      base with
      runtime = 2.0;
      faults =
        [ { Schedule.at = 1.0; until = None; spec = Schedule.Crash { node = 3 } } ];
    }
  in
  let r = run config 4000.0 in
  check_healthy "crash" r;
  (* One crashed replica of four: liveness retained via timeouts. *)
  Alcotest.(check bool) "still commits after crash" true
    (r.summary.committed_txs > 0);
  (* The crashed node's view falls behind the others. *)
  let crashed_view = r.final_views.(3) in
  Alcotest.(check bool) "crashed node lags" true
    (Array.exists (fun v -> v > crashed_view) r.final_views)

let test_fluctuation_recovers () =
  let config =
    {
      base with
      runtime = 3.0;
      seed = 23;
      faults =
        [
          {
            Schedule.at = 1.0;
            until = Some 1.5;
            spec = Schedule.Fluctuation { lo = 0.01; hi = 0.05 };
          };
        ];
    }
  in
  let r = run config 3000.0 in
  check_healthy "fluctuation" r;
  (* Throughput in the last second must recover to arrival rate. *)
  let tail =
    List.filter (fun (t, _) -> t >= 2.0 && t < 3.0) r.series
    |> List.map snd
  in
  let mean = List.fold_left ( +. ) 0.0 tail /. float_of_int (List.length tail) in
  Alcotest.(check bool) "recovered" true (mean > 1500.0)

let test_series_covers_run () =
  let r = run base 3000.0 in
  Alcotest.(check bool) "has buckets" true (List.length r.series >= 2);
  List.iter
    (fun (t, thr) ->
      if t < 0.0 || thr < 0.0 then Alcotest.fail "bad series point")
    r.series

let test_static_leader () =
  let r = run { base with election = Config.Static 0 } 4000.0 in
  check_healthy "static" r;
  Alcotest.(check bool) "commits" true (r.summary.committed_txs > 0)

let test_hashed_election () =
  let r = run { base with election = Config.Hashed } 4000.0 in
  check_healthy "hashed" r;
  Alcotest.(check bool) "commits" true (r.summary.committed_txs > 0)

let test_mempool_backpressure () =
  (* Tiny mempool at a high rate: rejections must be reported and the run
     stays healthy. *)
  let r = run { base with memsize = 50 } 200_000.0 in
  check_healthy "backpressure" r;
  Alcotest.(check bool) "rejections counted" true (r.summary.rejected_txs > 0)

let test_lossy_network () =
  (* 5% independent message loss: block synchronization and timeout
     re-broadcast keep the cluster live and consistent. *)
  let config = { base with timeout = 0.05; loss = 0.05; runtime = 2.5 } in
  let r = run config 4000.0 in
  check_healthy "lossy" r;
  Alcotest.(check bool) "still commits most traffic" true
    (r.summary.throughput > 2500.0);
  (* Heavier loss: slower, but never inconsistent. *)
  let r = run { config with loss = 0.2 } 2000.0 in
  check_healthy "very lossy" r;
  Alcotest.(check bool) "progress under 20% loss" true
    (r.summary.committed_txs > 0)

let test_backoff_restores_liveness () =
  (* View timer below the real round trip: fixed timers expire before any
     proposal can arrive and the cluster starves; geometric backoff
     stretches them until progress resumes (paper §VI-D discusses timeout
     settings; the backoff pacemaker is this repo's extension). *)
  let config =
    {
      base with
      timeout = 0.010;
      extra_delay_mu = 0.010;
      extra_delay_sigma = 0.0;
      runtime = 2.0;
    }
  in
  let starved = run config 2000.0 in
  Alcotest.(check int) "fixed timers starve" 0
    starved.summary.committed_txs;
  let recovered = run { config with backoff = 2.0 } 2000.0 in
  Alcotest.(check bool) "backoff restores throughput" true
    (recovered.summary.throughput > 1000.0);
  check_healthy "backoff" recovered

let test_cpu_utilization_reported () =
  let r = run base 20_000.0 in
  Alcotest.(check int) "one entry per replica" base.n
    (Array.length r.cpu_utilization);
  Array.iter
    (fun u ->
      if u <= 0.0 || u > 1.0 then
        Alcotest.failf "utilization out of range: %f" u)
    r.cpu_utilization;
  (* Higher load must consume more CPU. *)
  let light = run base 2_000.0 in
  Alcotest.(check bool) "monotone in load" true
    (r.cpu_utilization.(0) > light.cpu_utilization.(0))

let test_invalid_config_rejected () =
  match run { base with n = 0 } 100.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "invalid config accepted"

(* Safety property: across random seeds, protocols and faults, no two
   replicas ever commit conflicting blocks and no local violation occurs. *)
let safety_prop =
  let open QCheck in
  let gen =
    Gen.quad (Gen.int_range 0 3) (Gen.int_range 0 2) (Gen.int_range 0 1000)
      (Gen.oneofl [ 0.005; 0.02; 0.1 ])
  in
  Test.make ~name:"no conflicting commits under random runs" ~count:12
    (make
       ~print:(fun (p, s, seed, t) ->
         Printf.sprintf "proto=%d strat=%d seed=%d timeout=%g" p s seed t)
       gen)
    (fun (p, s, seed, timeout) ->
      let protocol =
        List.nth
          [ Config.Hotstuff; Config.Twochain; Config.Streamlet; Config.Fasthotstuff ]
          p
      in
      let strategy = List.nth [ Config.Honest; Config.Silence; Config.Fork ] s in
      let config =
        {
          base with
          protocol;
          strategy;
          n = 7;
          byz_no = (if strategy = Config.Honest then 0 else 2);
          timeout;
          runtime = 1.0;
          warmup = 0.2;
          seed;
        }
      in
      let r = run config 3000.0 in
      r.consistent && not r.any_violation)

(* Pinned fingerprints of the submission modes the benchmark does not
   gate: committed txs, views, simulator events, p50/p95 and the latency
   decomposition, printed round-trip exact. Any drift is a behavioural
   change of the tx path (records, mempool dedup, requeue of forked
   txs). *)
let fingerprint (r : Runtime.result) =
  let s = r.summary and d = r.decomposition in
  Printf.sprintf
    "txs %d views %d events %d p50 %.17g p95 %.17g | %d: %.17g %.17g %.17g \
     %.17g %.17g %.17g %.17g"
    s.committed_txs s.views r.sim_events s.latency_p50 s.latency_p95
    d.samples d.client_wire d.cpu_queue d.cpu_service d.mempool_wait
    d.nic_serialization d.consensus_wait d.total

let check_fingerprint name expected workload config =
  Alcotest.(check string) name expected
    (fingerprint (Runtime.run ~config ~workload ()))

let test_fingerprint_broadcast () =
  check_fingerprint "broadcast open loop"
    "txs 23934 views 573 events 49017 p50 0.0084775332909360346 p95 0.0096171428574949314 | 0: 0 0 0 0 0 0 0"
    (Workload.open_loop ~broadcast:true ~rate:20000.0 ())
    base

let test_fingerprint_closed_loop () =
  check_fingerprint "closed loop, 200 clients"
    "txs 18901 views 613 events 94714 p50 0.012591639501572688 p95 0.016063158863642062 | 18710: 0.0010005199597655282 0.00012386185499596819 0.00031638401924104936 0.0044971097594874079 2.1726926777139873e-05 0.0067272959800177426 0.012686898500284819"
    (Workload.closed_loop ~clients:200) base

let test_fingerprint_fork_attacker () =
  check_fingerprint "fork attacker"
    "txs 5381 views 827 events 86834 p50 0.023141339104988834 p95 0.035037368429339105 | 5332: 0.00099883610645173492 0.00041803872540347381 0.00030639928732182985 0.011014400966655406 3.8484831207788342e-05 0.01033163193988468 0.023107791856924954"
    (Workload.open_loop ~rate:4000.0 ())
    { byz_base with strategy = Config.Fork }

(* Records sit in fixed-size chunks: seqs on both sides of chunk
   boundaries keep their own stamps and flags, a slot past the last
   recorded chunk or recorded for another client has no record, and
   recording a seq far ahead allocates the chunks before it. *)
let test_tx_records_chunks () =
  let module R = Bamboo.Tx_records in
  let module Tx = Bamboo_types.Tx in
  let r = R.create () in
  let tx seq = Tx.make ~client:0 ~seq ~payload_len:0 in
  let seqs = [ 0; 1023; 1024; 1025; 4095; 4096; 70_000 ] in
  List.iter
    (fun seq ->
      R.record r (tx seq) ~target:(seq mod 4) ~issued_at:(float_of_int seq))
    seqs;
  List.iter
    (fun seq ->
      let slot = R.find r ~client:0 ~seq in
      Alcotest.(check int) "slot is the seq" seq slot;
      R.set r slot R.Batched_at (float_of_int (2 * seq)))
    seqs;
  R.set_completed r (R.find r ~client:0 ~seq:1024);
  List.iter
    (fun seq ->
      let slot = R.find r ~client:0 ~seq in
      Alcotest.(check int) "target" (seq mod 4) (R.target r slot);
      Alcotest.(check (float 0.0)) "issued" (float_of_int seq)
        (R.stamp r slot R.Issued_at);
      Alcotest.(check (float 0.0)) "batched" (float_of_int (2 * seq))
        (R.stamp r slot R.Batched_at);
      Alcotest.(check (float 0.0)) "arrived unset" (-1.0)
        (R.stamp r slot R.Arrived_at);
      Alcotest.(check bool) "completed" (seq = 1024) (R.completed r slot);
      Alcotest.(check bool) "not counted" false (R.counted r slot))
    seqs;
  Alcotest.(check int) "gap in a used chunk" (-1) (R.find r ~client:0 ~seq:2000);
  Alcotest.(check int) "past the last chunk" (-1) (R.find r ~client:0 ~seq:1_000_000);
  Alcotest.(check int) "other client" (-1)
    (R.find r ~client:3 ~seq:1024);
  R.record r (tx 1024) ~target:2 ~issued_at:9.0;
  let slot = R.find r ~client:0 ~seq:1024 in
  Alcotest.(check bool) "re-record clears flags" false (R.completed r slot);
  Alcotest.(check (float 0.0)) "re-record resets stamps" (-1.0)
    (R.stamp r slot R.Batched_at)

(* A chunk's stamp columns are released once every slot recorded in it
   has completed and a newer chunk exists; client, target and flags stay. *)
let stamp_chunk_words = (9 * 1024) + 1

let raises_invalid f =
  match f () with () -> false | exception Invalid_argument _ -> true

(* A sliding window of outstanding txs: records hold about 2.14 words a
   tx for client, target and flags, plus stamps for the few chunks that
   still have a pending tx and the spares (242,022 words in all: three
   stamp chunks). Without release the 100,000 txs would keep 98 stamp
   chunks, about 1.1M words. *)
let test_tx_records_sliding_window () =
  let module R = Bamboo.Tx_records in
  let module Tx = Bamboo_types.Tx in
  let r = R.create () in
  let tx seq = Tx.make ~client:0 ~seq ~payload_len:0 in
  let n = 100_000 and behind = 2_000 in
  for seq = 0 to n - 1 do
    R.record r (tx seq) ~target:0 ~issued_at:(float_of_int seq);
    if seq >= behind then R.set_completed r (R.find r ~client:0 ~seq:(seq - behind))
  done;
  let words = Obj.reachable_words (Obj.repr r) in
  let bound = (22 * n / 10) + (5 * stamp_chunk_words) in
  if words > bound then
    Alcotest.failf "records hold %d words for %d txs (bound %d)" words n bound;
  for seq = n - behind to n - 1 do
    let slot = R.find r ~client:0 ~seq in
    Alcotest.(check (float 0.0)) "pending stamps readable" (float_of_int seq)
      (R.stamp r slot R.Issued_at)
  done

(* One pending tx pins its chunk's stamps; completing it releases them,
   and the next chunk reuses the released array. *)
let test_tx_records_release () =
  let module R = Bamboo.Tx_records in
  let module Tx = Bamboo_types.Tx in
  let r = R.create () in
  let tx seq = Tx.make ~client:(seq mod 3) ~seq ~payload_len:0 in
  for seq = 0 to 1024 do
    R.record r (tx seq) ~target:(seq mod 4) ~issued_at:(float_of_int seq)
  done;
  R.set r 5 R.Batched_at 7.5;
  for seq = 0 to 1023 do
    if seq <> 5 then R.set_completed r seq
  done;
  R.set_counted r 9;
  Alcotest.(check (float 0.0)) "straggler issued" 5.0 (R.stamp r 5 R.Issued_at);
  Alcotest.(check (float 0.0)) "straggler batched" 7.5 (R.stamp r 5 R.Batched_at);
  R.set r 5 R.Nic_ser 0.25;
  Alcotest.(check (float 0.0)) "straggler writable" 0.25 (R.stamp r 5 R.Nic_ser);
  R.set_completed r 5;
  Alcotest.(check bool) "set on a released slot raises" true
    (raises_invalid (fun () -> R.set r 5 R.Nic_ser 1.0));
  Alcotest.(check bool) "set on another released slot raises" true
    (raises_invalid (fun () -> R.set r 1000 R.Arrived_at 1.0));
  for seq = 0 to 1023 do
    let slot = R.find r ~client:(seq mod 3) ~seq in
    Alcotest.(check int) "find" seq slot;
    Alcotest.(check int) "client" (seq mod 3) (R.client r slot);
    Alcotest.(check int) "target" (seq mod 4) (R.target r slot);
    Alcotest.(check bool) "completed" true (R.completed r slot);
    Alcotest.(check bool) "counted" (seq = 9) (R.counted r slot)
  done;
  Alcotest.(check int) "other client" (-1)
    (R.find r ~client:1 ~seq:9);
  let before = Obj.reachable_words (Obj.repr r) in
  R.record r (tx 2048) ~target:0 ~issued_at:1.0;
  let grown = Obj.reachable_words (Obj.repr r) - before in
  if grown >= stamp_chunk_words then
    Alcotest.failf "a new chunk after a release grew the records by %d words"
      grown;
  Alcotest.(check (float 0.0)) "reused stamps reset" (-1.0)
    (R.stamp r 2048 R.Arrived_at);
  R.record r (tx 7) ~target:1 ~issued_at:3.0;
  Alcotest.(check bool) "re-record clears completion" false (R.completed r 7);
  Alcotest.(check (float 0.0)) "re-record restores stamps" 3.0
    (R.stamp r 7 R.Issued_at)

let suite =
  [
    Alcotest.test_case "happy path, all protocols" `Quick
      test_happy_path_all_protocols;
    Alcotest.test_case "block interval constants" `Quick
      test_block_interval_constants;
    Alcotest.test_case "2CHS latency < HS" `Quick
      test_twochain_latency_below_hotstuff;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "closed loop" `Quick test_closed_loop;
    Alcotest.test_case "broadcast workload" `Quick test_broadcast_workload;
    Alcotest.test_case "forking attack (HS)" `Quick test_forking_attack_hotstuff;
    Alcotest.test_case "fork depth ordering" `Quick
      test_forking_attack_depth_ordering;
    Alcotest.test_case "streamlet fork immunity" `Quick
      test_forking_attack_streamlet_immune;
    Alcotest.test_case "silence attack" `Quick test_silence_attack;
    Alcotest.test_case "streamlet silence: no forks" `Quick
      test_silence_attack_streamlet_no_forks;
    Alcotest.test_case "crash fault" `Quick test_crash_fault;
    Alcotest.test_case "fluctuation recovery" `Quick test_fluctuation_recovers;
    Alcotest.test_case "series sanity" `Quick test_series_covers_run;
    Alcotest.test_case "static leader" `Quick test_static_leader;
    Alcotest.test_case "hashed election" `Quick test_hashed_election;
    Alcotest.test_case "mempool backpressure" `Quick test_mempool_backpressure;
    Alcotest.test_case "lossy network" `Quick test_lossy_network;
    Alcotest.test_case "backoff restores liveness" `Quick
      test_backoff_restores_liveness;
    Alcotest.test_case "cpu utilization" `Quick test_cpu_utilization_reported;
    Alcotest.test_case "invalid config" `Quick test_invalid_config_rejected;
    Alcotest.test_case "fingerprint: broadcast" `Quick
      test_fingerprint_broadcast;
    Alcotest.test_case "fingerprint: closed loop" `Quick
      test_fingerprint_closed_loop;
    Alcotest.test_case "fingerprint: fork attacker" `Quick
      test_fingerprint_fork_attacker;
    Alcotest.test_case "tx records across chunks" `Quick test_tx_records_chunks;
    Alcotest.test_case "tx records: sliding window" `Quick
      test_tx_records_sliding_window;
    Alcotest.test_case "tx records: stamp release" `Quick
      test_tx_records_release;
    QCheck_alcotest.to_alcotest safety_prop;
  ]
