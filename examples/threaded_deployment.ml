(* Run a real 4-replica HotStuff cluster — OS threads, real HMAC signature
   verification, wall-clock timers — over the in-process ring transport
   and then over TCP loopback sockets. This is the deployment path of the
   framework (Bamboo's "TCP and Go channel" transports); all paper
   experiments use the deterministic simulator instead. *)

module Config = Bamboo.Config
module Ring = Bamboo_network.Ring_transport
module Tcp = Bamboo_network.Tcp_transport
module Ring_runtime = Bamboo.Threaded_runtime.Make_batched (Ring)
module Tcp_runtime = Bamboo.Threaded_runtime.Make_batched (Tcp)

let config =
  { Config.default with n = 4; bsize = 100; timeout = 0.2; memsize = 50_000 }

let clients = 16
let duration = 3.0

(* Closed-loop clients, as bamboo_bench_client drives a server: each
   submits one tx to a replica, waits for its commit and records the
   wait, then submits the next. Returns the runtime's report and the
   clients' mean latency in seconds. *)
let drive (type e)
    (module R : Bamboo.Threaded_runtime.RUNTIME with type endpoint = e)
    (endpoints : e array) =
  let c = R.start ~config ~endpoints () in
  let stop = Atomic.make false in
  let mutex = Mutex.create () in
  let completed = ref 0 in
  let latency_total = ref 0.0 in
  let client id =
    let seq = ref 0 in
    while not (Atomic.get stop) do
      incr seq;
      let tx =
        Bamboo_types.Tx.make ~client:id ~seq:!seq ~payload_len:config.psize
      in
      let t0 = Unix.gettimeofday () in
      if
        R.submit_admission c ~replica:(id mod config.n) [ tx ] = 1
        && R.wait_tx_committed c tx.id ~timeout_s:5.0
      then begin
        let latency = Unix.gettimeofday () -. t0 in
        Mutex.lock mutex;
        incr completed;
        latency_total := !latency_total +. latency;
        Mutex.unlock mutex
      end
    done
  in
  let threads = List.init clients (fun i -> Thread.create client (i + 1)) in
  Thread.delay duration;
  Atomic.set stop true;
  List.iter Thread.join threads;
  let report = R.stop c in
  let mean =
    if !completed = 0 then 0.0 else !latency_total /. float_of_int !completed
  in
  (report, mean)

let describe label ((r : Bamboo.Threaded_runtime.report), latency_mean) =
  Printf.printf
    "%s: %.1fs wall clock, %d txs committed (%.0f tx/s), mean latency %.1f \
     ms, blocks per replica: %s, consistent: %b, violations: %b\n%!"
    label r.duration r.committed_txs r.throughput (latency_mean *. 1000.0)
    (String.concat "/" (Array.to_list (Array.map string_of_int r.committed_blocks)))
    r.consistent r.any_violation

let () =
  print_endline "Ring transport (single process, 4 replica threads):";
  let cluster = Ring.create_cluster ~n:4 () in
  let endpoints = Array.init 4 (Ring.endpoint cluster) in
  describe "  ring" (drive (module Ring_runtime) endpoints);
  print_endline "TCP transport (loopback sockets):";
  let addresses = Tcp.loopback_addresses ~n:4 ~base_port:29700 in
  let endpoints =
    Array.of_list
      (List.map (fun (self, _) -> Tcp.create ~self ~addresses ()) addresses)
  in
  describe "  tcp" (drive (module Tcp_runtime) endpoints)
