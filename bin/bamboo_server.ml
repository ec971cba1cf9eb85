(* REST front end to a Bamboo cluster (paper §III-D: "The Bamboo client
   library uses a RESTful API to interact with server nodes").

   Hosts an n-replica cluster (in-process ring transport, real crypto
   and wall-clock pacemakers) behind the deployed HTTP front end,
   {!Bamboo_cluster.Host}, which documents the routes. Serves for
   [--duration] seconds, then prints the host's JSON summary as its last
   line.

   Usage: bamboo_server [--n 4] [--protocol hotstuff] [--port 8080]
          [--duration 60] *)

module Config = Bamboo.Config
module Json = Bamboo_util.Json
module Ring = Bamboo_network.Ring_transport
module Ring_host =
  Bamboo_cluster.Host.Make (Bamboo.Threaded_runtime.Make_batched (Ring))

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
  let n = !n in
  let duration = !duration in
  let config =
    { Config.default with protocol; n; bsize = 100; memsize = 100_000 }
  in
  let ring = Ring.create_cluster ~n () in
  let until ~port =
    Printf.printf
      "bamboo_server: %d-replica %s cluster behind http://127.0.0.1:%d (%.0fs)\n%!"
      n (Config.protocol_name protocol) port duration;
    Thread.delay duration
  in
  let summary =
    Ring_host.serve ~config ~owned:(Array.init n Fun.id)
      ~endpoints:(Array.init n (Ring.endpoint ring))
      ~port:!port ~until ~transport:(fun () -> Json.Obj []) ()
  in
  print_endline (Json.to_string summary)
