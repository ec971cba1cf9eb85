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

let describe label (r : Bamboo.Threaded_runtime.report) =
  Printf.printf
    "%s: %.1fs wall clock, %d txs committed (%.0f tx/s), mean latency %.1f \
     ms, blocks per replica: %s, consistent: %b, violations: %b\n%!"
    label r.duration r.committed_txs r.throughput (r.latency_mean *. 1000.0)
    (String.concat "/" (Array.to_list (Array.map string_of_int r.committed_blocks)))
    r.consistent r.any_violation

let () =
  print_endline "Ring transport (single process, 4 replica threads):";
  let cluster = Ring.create_cluster ~n:4 () in
  let endpoints = Array.init 4 (Ring.endpoint cluster) in
  let report = Ring_runtime.run ~config ~endpoints ~duration:3.0 ~rate:500.0 () in
  describe "  ring" report;
  print_endline "TCP transport (loopback sockets):";
  let addresses = Tcp.loopback_addresses ~n:4 ~base_port:29700 in
  let endpoints =
    Array.of_list
      (List.map (fun (self, _) -> Tcp.create ~self ~addresses ()) addresses)
  in
  let report = Tcp_runtime.run ~config ~endpoints ~duration:3.0 ~rate:500.0 () in
  describe "  tcp" report
