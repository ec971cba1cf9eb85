(* Integration: real OS threads + real crypto over the in-process ring
   transport (the "channel" cases: Bamboo's single-machine plane) and TCP,
   via the wall-clock runtime. Short real-time runs. *)

module Config = Bamboo.Config
module Tcp = Bamboo_network.Tcp_transport
module Ring = Bamboo_network.Ring_transport
module Tcp_runtime = Bamboo.Threaded_runtime.Make_batched (Tcp)
module Ring_runtime = Bamboo.Threaded_runtime.Make_batched (Ring)

let config =
  { Config.default with n = 4; bsize = 50; timeout = 0.2; memsize = 10_000 }

let test_cluster_progress () =
  let cluster = Ring.create_cluster ~n:4 () in
  let endpoints = Array.init 4 (Ring.endpoint cluster) in
  let report =
    Ring_runtime.run ~config ~endpoints ~duration:1.5 ~rate:300.0 ()
  in
  Alcotest.(check bool) "committed txs" true (report.committed_txs > 0);
  Alcotest.(check bool) "all replicas commit blocks" true
    (Array.for_all (fun c -> c > 0) report.committed_blocks);
  Alcotest.(check bool) "consistent" true report.consistent;
  Alcotest.(check bool) "no violation" false report.any_violation;
  Alcotest.(check bool) "latency measured" true (report.latency_count > 0);
  Alcotest.(check bool) "latency sane" true
    (report.latency_mean > 0.0 && report.latency_mean < 1.0)

let test_streamlet () =
  let cluster = Ring.create_cluster ~n:4 () in
  let endpoints = Array.init 4 (Ring.endpoint cluster) in
  let config = { config with protocol = Config.Streamlet } in
  let report =
    Ring_runtime.run ~config ~endpoints ~duration:1.5 ~rate:200.0 ()
  in
  Alcotest.(check bool) "streamlet commits" true (report.committed_txs > 0);
  Alcotest.(check bool) "consistent" true report.consistent

let test_with_silent_byzantine () =
  let cluster = Ring.create_cluster ~n:4 () in
  let endpoints = Array.init 4 (Ring.endpoint cluster) in
  let config =
    { config with byz_no = 1; strategy = Config.Silence; timeout = 0.1 }
  in
  let report =
    Ring_runtime.run ~config ~endpoints ~duration:2.0 ~rate:200.0 ()
  in
  Alcotest.(check bool) "liveness with f silent" true (report.committed_txs > 0);
  Alcotest.(check bool) "consistent" true report.consistent;
  Alcotest.(check bool) "no violation" false report.any_violation

let test_kv_execution () =
  (* Submit real key-value commands through start/submit/stop and check
     that every replica executed the same state. *)
  let cluster = Ring.create_cluster ~n:4 () in
  let endpoints = Array.init 4 (Ring.endpoint cluster) in
  let c = Ring_runtime.start ~config ~endpoints () in
  let kv_tx seq key value =
    Bamboo_types.Tx.make_with_data ~client:2 ~seq
      ~data:(Bamboo.Kvstore.encode_command (Bamboo.Kvstore.Put { key; value }))
  in
  Ring_runtime.submit c ~replica:0 [ kv_tx 1 "alpha" "1"; kv_tx 2 "beta" "2" ];
  Ring_runtime.submit c ~replica:3 [ kv_tx 3 "alpha" "override" ];
  Alcotest.(check bool) "commits within deadline" true
    (Ring_runtime.wait_committed c ~count:3 ~timeout_s:5.0);
  Alcotest.(check bool) "tx_committed" true
    (Ring_runtime.tx_committed c { Bamboo_types.Tx.client = 2; seq = 1 });
  (* Let stragglers apply the blocks, then compare executed state. *)
  Thread.delay 0.3;
  let v = Ring_runtime.kv_get c ~replica:1 "beta" in
  Alcotest.(check (option string)) "replica 1 executed" (Some "2") v;
  let report = Ring_runtime.stop c in
  Alcotest.(check bool) "kv consistent" true report.kv_consistent;
  Alcotest.(check bool) "chain consistent" true report.consistent

let test_ring_cluster_progress () =
  (* The ring's own tallies under the runtime: replicas drain their
     inboxes in batches, and at this load no send hits a full inbox. *)
  let cluster = Ring.create_cluster ~n:4 () in
  let endpoints = Array.init 4 (Ring.endpoint cluster) in
  let report =
    Ring_runtime.run ~config ~endpoints ~duration:1.5 ~rate:300.0 ()
  in
  Alcotest.(check bool) "committed over ring" true (report.committed_txs > 0);
  Alcotest.(check bool) "consistent" true report.consistent;
  let reg = Bamboo_metrics.Registry.create () in
  Ring.publish_metrics cluster reg;
  let count = Bamboo_metrics.Snapshot.(counter_value (of_registry reg)) in
  let msgs = count "ring_transport_recv_msgs"
  and batches = count "ring_transport_recv_batches" in
  Alcotest.(check bool) "messages received" true (msgs > 0);
  Alcotest.(check bool) "at least one message per batch" true
    (batches > 0 && batches <= msgs);
  Alcotest.(check int) "no inbox drops" 0 (count "ring_transport_dropped_full")

let test_tcp_cluster_progress () =
  let addresses = Tcp.loopback_addresses ~n:4 ~base_port:29600 in
  let endpoints =
    Array.of_list (List.map (fun (self, _) -> Tcp.create ~self ~addresses ()) addresses)
  in
  let report =
    Tcp_runtime.run ~config ~endpoints ~duration:2.0 ~rate:200.0 ()
  in
  Alcotest.(check bool) "committed over TCP" true (report.committed_txs > 0);
  Alcotest.(check bool) "consistent" true report.consistent;
  Alcotest.(check bool) "no violation" false report.any_violation

let suite =
  [
    Alcotest.test_case "channel cluster" `Slow test_cluster_progress;
    Alcotest.test_case "channel streamlet" `Slow test_streamlet;
    Alcotest.test_case "channel + silent byzantine" `Slow
      test_with_silent_byzantine;
    Alcotest.test_case "kv execution layer" `Slow test_kv_execution;
    Alcotest.test_case "ring cluster" `Slow test_ring_cluster_progress;
    Alcotest.test_case "tcp cluster" `Slow test_tcp_cluster_progress;
  ]
