(* REST front end to a Bamboo cluster (paper §III-D: "The Bamboo client
   library uses a RESTful API to interact with server nodes").

   Hosts an n-replica cluster (in-process ring transport, real crypto
   and wall-clock pacemakers) behind one HTTP endpoint:

     POST /tx?replica=I[&wait=true]   body = key-value command or raw bytes
                                      (503 {"error":"overloaded"} when the
                                      replica's mempool sheds the tx)
     GET  /kv/KEY?replica=I           read the executed store
     GET  /metrics                    committed transaction count etc.
     GET  /health

   [replica] is optional (default: a random replica) on every route; a
   value that is not a decimal integer in [0, n) is answered with 400.

   Key-value commands use the Kvstore encoding ("P<klen>:<key><value>",
   "G...", "D..."); any other body rides along as opaque payload.

   Usage: bamboo_server [--n 4] [--protocol hotstuff] [--port 8080]
          [--duration 60] *)

module Config = Bamboo.Config
module Ring = Bamboo_network.Ring_transport
module Http = Bamboo_network.Http
module Runtime = Bamboo.Threaded_runtime.Make_batched (Ring)
open Bamboo_types

(* A replica id given in a query: decimal digits only, in [0, n). *)
let parse_replica ~n v =
  let decimal = v <> "" && String.for_all (fun c -> '0' <= c && c <= '9') v in
  match int_of_string_opt v with
  | Some i when decimal && i < n -> Some i
  | Some _ | None -> None

let () =
  let n = ref 4 in
  let protocol = ref "hotstuff" in
  let port = ref 8080 in
  let duration = ref 60.0 in
  let args =
    [
      ("--n", Arg.Set_int n, "cluster size (default 4)");
      ("--protocol", Arg.Set_string protocol, "hotstuff|twochain|streamlet|fasthotstuff");
      ("--port", Arg.Set_int port, "HTTP port (default 8080)");
      ("--duration", Arg.Set_float duration, "seconds to serve (default 60)");
    ]
  in
  Arg.parse args (fun _ -> ()) "bamboo_server";
  let protocol =
    match Config.protocol_of_name !protocol with
    | Ok p -> p
    | Error e ->
        prerr_endline e;
        exit 2
  in
  (* Snapshot the option cells: handler threads see plain values. *)
  let n = !n in
  let port = !port in
  let duration = !duration in
  let config =
    { Config.default with protocol; n; bsize = 100; memsize = 100_000 }
  in
  let cluster_transport = Ring.create_cluster ~n () in
  let endpoints = Array.init n (Ring.endpoint cluster_transport) in
  let cluster = Runtime.start ~config ~endpoints () in
  let seq_mutex = Mutex.create () in
  let[@guarded_by "seq_mutex"] seq = ref 0 in
  (* The PRNG state is mutated by every handler thread that picks a
     random replica, so it shares the sequence lock. *)
  let[@guarded_by "seq_mutex"] rng = Bamboo_util.Rng.create ~seed:99 in
  let started = Unix.gettimeofday () in
  let handler (req : Http.request) =
    let path, params = Http.query_params req.path in
    let replica =
      match List.assoc_opt "replica" params with
      | Some v -> parse_replica ~n v
      | None ->
          Mutex.lock seq_mutex;
          let r = Bamboo_util.Rng.int rng n in
          Mutex.unlock seq_mutex;
          Some r
    in
    let route replica =
      match (req.meth, path) with
      | "POST", "/tx" ->
          let id =
            Mutex.lock seq_mutex;
            incr seq;
            let s = !seq in
            Mutex.unlock seq_mutex;
            s
          in
          let tx = Tx.make_with_data ~client:9 ~seq:id ~data:req.body in
          if Runtime.submit_admission cluster ~replica [ tx ] = 0 then
            {
              Http.status = 503;
              body =
                Printf.sprintf
                  {|{"error": "overloaded", "replica": %d, "rejected_txs": %d}|}
                  replica
                  (Runtime.rejected_txs cluster);
            }
          else
          let committed =
            List.assoc_opt "wait" params = Some "true"
            && Runtime.wait_tx_committed cluster tx.Tx.id ~timeout_s:5.0
          in
          {
            Http.status = 200;
            body =
              Printf.sprintf
                {|{"client": 9, "seq": %d, "replica": %d, "committed": %b}|} id
                replica committed;
          }
      | "GET", path when String.length path > 4 && String.sub path 0 4 = "/kv/" ->
          let key = String.sub path 4 (String.length path - 4) in
          (match Runtime.kv_get cluster ~replica key with
          | Some value -> { Http.status = 200; body = value }
          | None -> { Http.status = 404; body = "key not found" })
      | "GET", "/metrics" ->
          let committed = Runtime.committed_txs cluster in
          let elapsed = Unix.gettimeofday () -. started in
          {
            Http.status = 200;
            body =
              Printf.sprintf
                {|{"committed_txs": %d, "rejected_txs": %d, "elapsed_s": %.1f, "throughput": %.1f}|}
                committed
                (Runtime.rejected_txs cluster)
                elapsed
                (float_of_int committed /. elapsed);
          }
      | "GET", "/health" -> { Http.status = 200; body = {|{"status": "up"}|} }
      | _ -> { Http.status = 404; body = "unknown route" }
    in
    match replica with
    | Some replica -> route replica
    | None ->
        {
          Http.status = 400;
          body =
            Printf.sprintf {|{"error": "replica must be an integer in [0, %d)"}|}
              n;
        }
  in
  let server = Http.start ~port ~handler in
  Printf.printf
    "bamboo_server: %d-replica %s cluster behind http://127.0.0.1:%d (%.0fs)\n%!"
    n
    (Config.protocol_name protocol)
    (Http.port server) duration;
  Thread.delay duration;
  Http.stop server;
  let report = Runtime.stop cluster in
  Printf.printf
    "served %.1fs: %d txs committed, consistent=%b kv_consistent=%b\n" report.duration
    report.committed_txs report.consistent report.kv_consistent
