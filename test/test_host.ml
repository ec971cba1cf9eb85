(* The deployed HTTP front end ([Bamboo_cluster.Host]) driven through its
   request handler over an in-process ring cluster of 4: no sockets, no
   ports. *)

module Config = Bamboo.Config
module Json = Bamboo_util.Json
module Http = Bamboo_network.Http
module Ring = Bamboo_network.Ring_transport
module Host =
  Bamboo_cluster.Host.Make (Bamboo.Threaded_runtime.Make_batched (Ring))

let config =
  { Config.default with n = 4; bsize = 50; timeout = 0.2; memsize = 10_000 }

let with_host ?(config = config) f =
  let ring = Ring.create_cluster ~n:4 () in
  let host =
    Host.start ~publish:(Ring.publish_metrics ring) ~config
      ~owned:[| 0; 1; 2; 3 |]
      ~endpoints:(Array.init 4 (Ring.endpoint ring))
      ()
  in
  let stop () = Host.stop host in
  match f host with
  | () -> stop ()
  | exception e ->
      ignore (stop () : Json.t);
      raise e

let call ?(body = "") host meth path =
  Host.handle host { Http.meth; path; headers = []; body }

let check_status label expected (r : Http.response) =
  if r.status <> expected then
    Alcotest.failf "%s: status %d (%s), expected %d" label r.status r.body
      expected

(* The counter [name] in a snapshot's JSON, summed over its label sets;
   [None] when the snapshot has no such metric. *)
let json_counter snapshot name =
  let named =
    List.filter
      (fun m -> String.equal (Json.get_string (Json.member "name" m)) name)
      (Json.to_list (Json.member "metrics" snapshot))
  in
  if named = [] then None
  else
    Some (List.fold_left (fun acc m -> acc + Json.to_int (Json.member "value" m)) 0 named)

let metrics_json host =
  let r = call host "GET" "/metrics?format=json" in
  check_status "metrics" 200 r;
  Json.of_string r.body

(* The value of the counter [name] in a [/metrics?format=json] body. *)
let counter host name =
  match json_counter (metrics_json host) name with
  | Some v -> v
  | None -> Alcotest.failf "no %s in /metrics" name

(* A put to replica 1 with [wait=true] commits, and reads back from
   replica 2 once that replica has applied the block. *)
let test_put_commits_and_reads_back () =
  let summary =
    with_host (fun host ->
        check_status "health" 200 (call host "GET" "/health");
        let r =
          call ~body:"P5:smokehello" host "POST" "/tx?replica=1&wait=true"
        in
        check_status "put" 200 r;
        Alcotest.(check string)
          "response" {|{"client": 2000, "seq": 0, "replica": 1, "committed": true}|}
          r.body;
        let rec read tries =
          let r = call host "GET" "/kv/smoke?replica=2" in
          if r.status = 200 || tries = 0 then r
          else begin
            Thread.delay 0.05;
            read (tries - 1)
          end
        in
        let r = read 100 in
        check_status "kv read" 200 r;
        Alcotest.(check string) "value" "hello" r.body;
        check_status "unset key" 404 (call host "GET" "/kv/absent?replica=2");
        let r = call host "POST" "/tx?client=7&seq=3&replica=0" in
        check_status "explicit ids" 200 r;
        Alcotest.(check string)
          "explicit ids kept"
          {|{"client": 7, "seq": 3, "replica": 0, "committed": false}|} r.body;
        if counter host "cluster_committed_txs" < 1 then
          Alcotest.fail "/metrics shows no committed tx";
        Alcotest.(check int) "accepted" 2 (counter host "cluster_ingest_accepted");
        check_status "unknown route" 404 (call host "GET" "/nope"))
  in
  Alcotest.(check int) "summary node" 0 (Json.to_int (Json.member "node" summary));
  Alcotest.(check bool) "summary commits" true
    (Json.to_int (Json.member "committed_txs" summary) >= 1);
  Alcotest.(check int) "summary accepted" 2
    (Json.to_int (Json.member "ingest_accepted" summary));
  Alcotest.(check bool) "consistent" true
    (Json.to_bool (Json.member "consistent" summary));
  Alcotest.(check bool) "kv consistent" true
    (Json.to_bool (Json.member "kv_consistent" summary))

(* Malformed or unowned ids are a 400 and admit nothing: no substitute id,
   no sign, no hex, no overflow, and client and seq come together. *)
let test_malformed_ids_are_400 () =
  ignore
    (with_host (fun host ->
         List.iter
           (fun path -> check_status path 400 (call ~body:"x" host "POST" path))
           [
             "/tx?replica=-1";
             "/tx?replica=4";
             "/tx?replica=";
             "/tx?client=1&seq=abc";
             "/tx?client=1&seq=-1";
             "/tx?client=1";
             "/tx?seq=1";
             "/tx?client=0x1&seq=1";
             "/tx?client=1&seq=1_000";
             "/tx?client=1&seq=99999999999999999999";
           ];
         check_status "kv replica" 400 (call host "GET" "/kv/k?replica=4");
         Alcotest.(check int) "nothing admitted" 0
           (counter host "cluster_ingest_accepted"))
      : Json.t)

(* With a one-tx mempool a burst is shed with 503s, and [/metrics] counts
   each shed and each admitted tx. *)
let test_burst_is_shed () =
  let summary =
    with_host ~config:{ config with memsize = 1 } (fun host ->
        let shed = ref 0 and ok = ref 0 in
        for seq = 1 to 50 do
          let r =
            call ~body:"x" host "POST"
              (Printf.sprintf "/tx?client=5&seq=%d&replica=0" seq)
          in
          match r.status with
          | 200 -> incr ok
          | 503 ->
              incr shed;
              if not (String.starts_with ~prefix:{|{"error": "overloaded"|} r.body)
              then
                Alcotest.failf "503 body: %s" r.body
          | s -> Alcotest.failf "status %d" s
        done;
        if !shed = 0 then Alcotest.fail "a burst into a one-tx pool shed nothing";
        Alcotest.(check int) "sheds counted" !shed
          (counter host "cluster_ingest_shed");
        Alcotest.(check int) "admits counted" !ok
          (counter host "cluster_ingest_accepted"))
  in
  Alcotest.(check int) "summary sheds + admits" 50
    (Json.to_int (Json.member "ingest_shed" summary)
    + Json.to_int (Json.member "ingest_accepted" summary))

(* The summary's transport tallies are the ring's, as [/metrics] serves
   them: both name [ring_transport_recv_msgs] once a tx has committed. *)
let test_transport_tallies () =
  let live = ref None in
  let summary =
    with_host (fun host ->
        let r = call ~body:"P1:kv" host "POST" "/tx?replica=0&wait=true" in
        check_status "put" 200 r;
        if not (String.ends_with ~suffix:{|"committed": true}|} r.body) then
          Alcotest.failf "put did not commit: %s" r.body;
        live := json_counter (metrics_json host) "ring_transport_recv_msgs")
  in
  let received = function Some n -> n > 0 | None -> false in
  Alcotest.(check bool) "/metrics counts ring receives" true (received !live);
  Alcotest.(check bool) "summary counts ring receives" true
    (received
       (json_counter (Json.member "transport" summary) "ring_transport_recv_msgs"))

let suite =
  [
    Alcotest.test_case "put commits and reads back" `Slow
      test_put_commits_and_reads_back;
    Alcotest.test_case "malformed ids are 400" `Slow test_malformed_ids_are_400;
    Alcotest.test_case "burst is shed with 503" `Slow test_burst_is_shed;
    Alcotest.test_case "summary and /metrics report transport tallies" `Slow
      test_transport_tallies;
  ]
