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

(* Starts a cluster on [endpoints], offers it [rate] tx/s for [duration]
   wall-clock seconds, each 2 ms batch to the next replica in turn, and
   stops it. *)
let drive (type e)
    (module R : Bamboo.Threaded_runtime.RUNTIME with type endpoint = e)
    ~config ~(endpoints : e array) ~duration ~rate () =
  let c = R.start ~config ~endpoints () in
  let t0 = Unix.gettimeofday () in
  let sent = ref 0 in
  while Unix.gettimeofday () -. t0 < duration do
    let due = int_of_float (rate *. (Unix.gettimeofday () -. t0)) in
    if due > !sent then begin
      let txs =
        List.init (due - !sent) (fun i ->
            Bamboo_types.Tx.make ~client:1 ~seq:(!sent + i + 1)
              ~payload_len:config.psize)
      in
      ignore (R.submit_admission c ~replica:(!sent mod config.n) txs : int);
      sent := due
    end;
    Thread.delay 0.002
  done;
  R.stop c

let test_cluster_progress () =
  let cluster = Ring.create_cluster ~n:4 () in
  let endpoints = Array.init 4 (Ring.endpoint cluster) in
  let report =
    drive (module Ring_runtime) ~config ~endpoints ~duration:1.5 ~rate:300.0 ()
  in
  Alcotest.(check bool) "committed txs" true (report.committed_txs > 0);
  Alcotest.(check bool) "all replicas commit blocks" true
    (Array.for_all (fun c -> c > 0) report.committed_blocks);
  Alcotest.(check bool) "consistent" true report.consistent;
  Alcotest.(check bool) "no violation" false report.any_violation

let test_streamlet () =
  let cluster = Ring.create_cluster ~n:4 () in
  let endpoints = Array.init 4 (Ring.endpoint cluster) in
  let config = { config with protocol = Config.Streamlet } in
  let report =
    drive (module Ring_runtime) ~config ~endpoints ~duration:1.5 ~rate:200.0 ()
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
    drive (module Ring_runtime) ~config ~endpoints ~duration:2.0 ~rate:200.0 ()
  in
  Alcotest.(check bool) "liveness with f silent" true (report.committed_txs > 0);
  Alcotest.(check bool) "consistent" true report.consistent;
  Alcotest.(check bool) "no violation" false report.any_violation

let test_kv_execution () =
  (* Submit real key-value commands through start/submit_admission/stop
     and check that every replica executed the same state. *)
  let cluster = Ring.create_cluster ~n:4 () in
  let endpoints = Array.init 4 (Ring.endpoint cluster) in
  let c = Ring_runtime.start ~config ~endpoints () in
  let kv_tx seq key value =
    Bamboo_types.Tx.make_with_data ~client:2 ~seq
      ~data:(Bamboo.Kvstore.encode_command (Bamboo.Kvstore.Put { key; value }))
  in
  Alcotest.(check int) "both admitted" 2
    (Ring_runtime.submit_admission c ~replica:0
       [ kv_tx 1 "alpha" "1"; kv_tx 2 "beta" "2" ]);
  Alcotest.(check int) "one admitted" 1
    (Ring_runtime.submit_admission c ~replica:3 [ kv_tx 3 "alpha" "override" ]);
  Alcotest.(check bool) "commits within deadline" true
    (Ring_runtime.wait_committed c ~count:3 ~timeout_s:5.0);
  Alcotest.(check bool) "tx_committed" true
    (Ring_runtime.tx_committed c { Bamboo_types.Tx.client = 2; seq = 1 });
  Alcotest.(check bool) "wait_tx_committed" true
    (Ring_runtime.wait_tx_committed c { Bamboo_types.Tx.client = 2; seq = 3 }
       ~timeout_s:5.0);
  (* Let stragglers apply the blocks, then compare executed state. *)
  Thread.delay 0.3;
  let v = Ring_runtime.kv_get c ~replica:1 "beta" in
  Alcotest.(check (option string)) "replica 1 executed" (Some "2") v;
  let report = Ring_runtime.stop c in
  Alcotest.(check bool) "kv consistent" true report.kv_consistent;
  Alcotest.(check bool) "chain consistent" true report.consistent

(* With no traffic the count stays 0: a reached count returns at once,
   and an unreachable one (or an unknown tx) times out within 50 ms of
   its deadline, also when another waiter is parked with a later one. *)
let test_commit_waits () =
  let cluster = Ring.create_cluster ~n:4 () in
  let endpoints = Array.init 4 (Ring.endpoint cluster) in
  let c = Ring_runtime.start ~config ~endpoints () in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let reached, s = timed (fun () -> Ring_runtime.wait_committed c ~count:0 ~timeout_s:5.0) in
  Alcotest.(check bool) "reached count" true reached;
  if s > 0.05 then Alcotest.failf "a reached count took %.3f s" s;
  let check_timeout label wait =
    let reached, s = timed wait in
    Alcotest.(check bool) label false reached;
    if s < 0.2 || s > 0.25 then Alcotest.failf "%s returned after %.3f s, timeout 0.2 s" label s
  in
  check_timeout "unreachable count" (fun () ->
      Ring_runtime.wait_committed c ~count:1 ~timeout_s:0.2);
  check_timeout "unknown tx" (fun () ->
      Ring_runtime.wait_tx_committed c { Bamboo_types.Tx.client = 2; seq = 1 }
        ~timeout_s:0.2);
  (* Waiters with different deadlines: the deadline thread wakes them
     when the earliest passes, and the later one parks again until its
     own. *)
  let late = ref (true, 0.0) in
  let later =
    Thread.create
      (fun () ->
        late := timed (fun () -> Ring_runtime.wait_committed c ~count:1 ~timeout_s:0.5))
      ()
  in
  check_timeout "earlier of two waiters" (fun () ->
      Ring_runtime.wait_committed c ~count:1 ~timeout_s:0.2);
  Thread.join later;
  let reached, s = !late in
  Alcotest.(check bool) "later of two waiters" false reached;
  if s < 0.5 || s > 0.55 then
    Alcotest.failf "later of two waiters returned after %.3f s, timeout 0.5 s" s;
  ignore (Ring_runtime.stop c : Bamboo.Threaded_runtime.report)

let test_ring_cluster_progress () =
  (* The ring's own tallies under the runtime: replicas drain their
     inboxes in batches, and at this load no send hits a full inbox. *)
  let cluster = Ring.create_cluster ~n:4 () in
  let endpoints = Array.init 4 (Ring.endpoint cluster) in
  let report =
    drive (module Ring_runtime) ~config ~endpoints ~duration:1.5 ~rate:300.0 ()
  in
  Alcotest.(check bool) "committed over ring" true (report.committed_txs > 0);
  Alcotest.(check bool) "consistent" true report.consistent;
  let reg = Bamboo_metrics.Registry.create () in
  Ring.publish_metrics cluster reg;
  let count = Bamboo_metrics.(Snapshot.counter_value (Registry.snapshot reg)) in
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
    drive (module Tcp_runtime) ~config ~endpoints ~duration:2.0 ~rate:200.0 ()
  in
  Alcotest.(check bool) "committed over TCP" true (report.committed_txs > 0);
  Alcotest.(check bool) "consistent" true report.consistent;
  Alcotest.(check bool) "no violation" false report.any_violation

(* Every pair of stores at an equal height is compared, not only the
   pairs that include replica 0. *)
let test_kv_consistent_rule () =
  let ok = Bamboo.Threaded_runtime.kv_consistent in
  Alcotest.(check bool)
    "replica 0 lags, the others disagree" false
    (ok [ (5, "a"); (7, "b"); (7, "c") ]);
  Alcotest.(check bool)
    "replica 0 lags, the others agree" true
    (ok [ (5, "a"); (7, "b"); (7, "b") ]);
  Alcotest.(check bool)
    "different heights are not compared" true
    (ok [ (5, "a"); (6, "b"); (7, "c") ]);
  Alcotest.(check bool) "equal heights disagree" false
    (ok [ (5, "a"); (5, "b") ])

let suite =
  [
    Alcotest.test_case "kv agreement compares equal heights" `Quick
      test_kv_consistent_rule;
    Alcotest.test_case "channel cluster" `Slow test_cluster_progress;
    Alcotest.test_case "channel streamlet" `Slow test_streamlet;
    Alcotest.test_case "channel + silent byzantine" `Slow
      test_with_silent_byzantine;
    Alcotest.test_case "kv execution layer" `Slow test_kv_execution;
    Alcotest.test_case "commit waits" `Slow test_commit_waits;
    Alcotest.test_case "ring cluster" `Slow test_ring_cluster_progress;
    Alcotest.test_case "tcp cluster" `Slow test_tcp_cluster_progress;
  ]
