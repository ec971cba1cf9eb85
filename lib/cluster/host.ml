(* The deployed replica host: the one HTTP front end (the paper's REST
   client API, §III-D) over a {!Bamboo.Threaded_runtime} cluster.
   [bamboo_server] runs it over every replica on the ring transport,
   [bamboo cluster node] over one replica on TCP. Routes: [POST /tx],
   [GET /kv/KEY], [GET /health] and [GET /metrics] (README
   "Deployment"). Ids in a query are decimal digits only; [client] and
   [seq] come both or neither, and [replica] must be owned. *)

(* Uptime and the host's summary are wall-clock by design: this is the
   deployed plane, not the simulator. *)
[@@@lint.allow "no-ambient-nondeterminism"]

module Json = Bamboo_util.Json
module Http = Bamboo_network.Http
module Registry = Bamboo_metrics.Registry
module Snapshot = Bamboo_metrics.Snapshot
open Bamboo_types

let local_client_base = 2000
(* Client id of requests that arrive without [client]/[seq] (e.g. a human
   with curl): [local_client_base + lowest owned id], so hosts of
   different replicas never assign the same tx id. *)

let commit_wait_s = 5.0

(* A non-negative decimal integer: digits only, no sign, [0x] or [_],
   and no overflow. *)
let parse_id v =
  if v <> "" && String.for_all (fun c -> '0' <= c && c <= '9') v then
    int_of_string_opt v
  else None

(* Route steps return [Error response] to answer early. *)
let ( let* ) = Result.bind

let respond = function Ok r | Error r -> r

let reply status fmt = Printf.ksprintf (fun body -> { Http.status; body }) fmt

let bad_request msg = reply 400 {|{"error": "%s"}|} msg

module Make (R : Bamboo.Threaded_runtime.RUNTIME) = struct
  type t = {
    cluster : R.cluster;
    owned : int list; (* a list: read-only, so handler threads share it *)
    node : int; (* lowest owned id: names this host in metrics and summary *)
    publish : Registry.t -> unit;
    started : float;
    accepted : int Atomic.t;
    shed : int Atomic.t;
    next_seq : int Atomic.t;
    rng_mutex : Mutex.t;
    rng : Bamboo_util.Rng.t; [@guarded_by "rng_mutex"]
        (* picks the replica of a request that names none *)
  }

  (** Starts the runtime over [endpoints] (positional against [owned]);
      [traces] and [epoch] are passed to {!R.start}. [publish] adds the
      transport's metrics to each [/metrics] snapshot. *)
  let start ?traces ?epoch ?(publish = ignore) ~config ~owned ~endpoints () =
    let cluster = R.start ~owned ?traces ?epoch ~config ~endpoints () in
    {
      cluster;
      owned = Array.to_list owned;
      node = Array.fold_left Int.min max_int owned;
      publish;
      started = Unix.gettimeofday ();
      accepted = Atomic.make 0;
      shed = Atomic.make 0;
      next_seq = Atomic.make 0;
      rng_mutex = Mutex.create ();
      rng = Bamboo_util.Rng.create ~seed:99;
    }

  let replica t params =
    match List.assoc_opt "replica" params with
    | Some v -> (
        match parse_id v with
        | Some r when List.mem r t.owned -> Ok r
        | Some _ | None -> Error (bad_request "replica must be an owned replica id"))
    | None -> (
        match t.owned with
        | [ only ] -> Ok only
        | owned ->
            Mutex.lock t.rng_mutex;
            let i = Bamboo_util.Rng.int t.rng (List.length owned) in
            Mutex.unlock t.rng_mutex;
            Ok (List.nth owned i))

  let tx_id t params =
    match (List.assoc_opt "client" params, List.assoc_opt "seq" params) with
    | None, None ->
        Ok (local_client_base + t.node, Atomic.fetch_and_add t.next_seq 1)
    | Some c, Some s -> (
        match (parse_id c, parse_id s) with
        | Some c, Some s -> Ok (c, s)
        | _ -> Error (bad_request "client and seq must be decimal integers"))
    | _ -> Error (bad_request "client and seq must be given together")

  let post_tx t params body =
    let* replica = replica t params in
    let* client, seq = tx_id t params in
    let tx = Tx.make_with_data ~client ~seq ~data:body in
    if R.submit_admission t.cluster ~replica [ tx ] = 0 then begin
      Atomic.incr t.shed;
      Ok
        (reply 503
           {|{"error": "overloaded", "client": %d, "seq": %d, "replica": %d, "rejected_txs": %d}|}
           client seq replica
           (R.rejected_txs t.cluster))
    end
    else begin
      Atomic.incr t.accepted;
      let committed =
        List.assoc_opt "wait" params = Some "true"
        && R.wait_tx_committed t.cluster tx.Tx.id ~timeout_s:commit_wait_s
      in
      Ok
        (reply 200 {|{"client": %d, "seq": %d, "replica": %d, "committed": %b}|}
           client seq replica committed)
    end

  let get_kv t params key =
    let* replica = replica t params in
    match R.kv_get t.cluster ~replica key with
    | Some value -> Ok { Http.status = 200; body = value }
    | None -> Ok { Http.status = 404; body = "key not found" }

  let metrics t params =
    let reg = Registry.create () in
    t.publish reg;
    let labels = [ ("node", string_of_int t.node) ] in
    let count name v = Registry.Counter.add (Registry.counter reg ~labels name) v in
    count "cluster_ingest_accepted" (Atomic.get t.accepted);
    count "cluster_ingest_shed" (Atomic.get t.shed);
    count "cluster_committed_txs" (R.committed_txs t.cluster);
    count "cluster_rejected_txs" (R.rejected_txs t.cluster);
    Registry.Gauge.set
      (Registry.gauge reg ~labels "cluster_uptime_seconds")
      (Unix.gettimeofday () -. t.started);
    let snap = Snapshot.of_registry reg in
    let body =
      match List.assoc_opt "format" params with
      | Some "json" -> Json.to_string (Snapshot.to_json snap)
      | _ -> Snapshot.to_prometheus snap
    in
    { Http.status = 200; body }

  (** The request handler: safe to call from many threads at once. *)
  let handle t (req : Http.request) =
    let path, params = Http.query_params req.path in
    match (req.meth, path) with
    | "POST", "/tx" -> respond (post_tx t params req.body)
    | "GET", path when String.starts_with ~prefix:"/kv/" path ->
        respond (get_kv t params (String.sub path 4 (String.length path - 4)))
    | "GET", "/health" -> reply 200 {|{"status": "up", "node": %d}|} t.node
    | "GET", "/metrics" -> metrics t params
    | _ -> { Http.status = 404; body = "unknown route" }

  (** Stops the runtime and returns the host's summary. [transport] is
      read after the runtime has closed the endpoints. *)
  let stop t ~transport =
    let report = R.stop t.cluster in
    Json.Obj
      [
        ("node", Json.Int t.node);
        ("duration", Json.Float report.duration);
        ("committed_txs", Json.Int report.committed_txs);
        ("throughput", Json.Float report.throughput);
        ("ingest_accepted", Json.Int (Atomic.get t.accepted));
        ("ingest_shed", Json.Int (Atomic.get t.shed));
        ("consistent", Json.Bool report.consistent);
        ("kv_consistent", Json.Bool report.kv_consistent);
        ("transport", transport ());
      ]

  (** Starts the runtime, serves {!handle} on 127.0.0.1:[port], and
      blocks in [until ~port] (given the bound port) until the caller
      says stop; then stops HTTP, then the runtime, and returns the
      summary. *)
  let serve ?traces ?epoch ?publish ~config ~owned ~endpoints ~port ~until
      ~transport () =
    let t = start ?traces ?epoch ?publish ~config ~owned ~endpoints () in
    let server = Http.start ~port ~handler:(handle t) in
    until ~port:(Http.port server);
    Http.stop server;
    stop t ~transport
end
