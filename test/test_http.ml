module Http = Bamboo_network.Http

let with_server handler f =
  let server = Http.start ~port:0 ~handler in
  Fun.protect ~finally:(fun () -> Http.stop server) (fun () -> f (Http.port server))

let echo_handler (req : Http.request) =
  {
    Http.status = 200;
    body = Printf.sprintf "%s %s %s" req.meth req.path req.body;
  }

let test_get () =
  with_server echo_handler (fun port ->
      match Http.request ~host:"127.0.0.1" ~port ~meth:"GET" ~path:"/hello" () with
      | Ok { status; body } ->
          Alcotest.(check int) "status" 200 status;
          Alcotest.(check string) "echo" "GET /hello " body
      | Error e -> Alcotest.fail e)

let test_post_body () =
  with_server echo_handler (fun port ->
      match
        Http.request ~body:"payload bytes" ~host:"127.0.0.1" ~port ~meth:"post"
          ~path:"/tx?wait=true" ()
      with
      | Ok { status; body } ->
          Alcotest.(check int) "status" 200 status;
          Alcotest.(check string) "method upcased, body through"
            "POST /tx?wait=true payload bytes" body
      | Error e -> Alcotest.fail e)

let test_status_codes () =
  let handler (req : Http.request) =
    if req.path = "/missing" then { Http.status = 404; body = "nope" }
    else { Http.status = 200; body = "ok" }
  in
  with_server handler (fun port ->
      match Http.request ~host:"127.0.0.1" ~port ~meth:"GET" ~path:"/missing" () with
      | Ok { status; body } ->
          Alcotest.(check int) "404" 404 status;
          Alcotest.(check string) "body" "nope" body
      | Error e -> Alcotest.fail e)

let test_handler_exception_is_500 () =
  let handler _ = failwith "boom" in
  with_server handler (fun port ->
      match Http.request ~host:"127.0.0.1" ~port ~meth:"GET" ~path:"/" () with
      | Ok { status; _ } -> Alcotest.(check int) "500" 500 status
      | Error e -> Alcotest.fail e)

let test_binary_body () =
  let blob = String.init 512 (fun i -> Char.chr (i mod 256)) in
  let handler (req : Http.request) = { Http.status = 200; body = req.body } in
  with_server handler (fun port ->
      match
        Http.request ~body:blob ~host:"127.0.0.1" ~port ~meth:"POST" ~path:"/b" ()
      with
      | Ok { body; _ } -> Alcotest.(check string) "binary intact" blob body
      | Error e -> Alcotest.fail e)

let test_concurrent_requests () =
  let handler (req : Http.request) =
    Thread.delay 0.01;
    { Http.status = 200; body = req.path }
  in
  with_server handler (fun port ->
      let results = Array.make 8 false in
      let threads =
        List.init 8 (fun i ->
            Thread.create
              (fun () ->
                match
                  Http.request ~host:"127.0.0.1" ~port ~meth:"GET"
                    ~path:(Printf.sprintf "/%d" i) ()
                with
                | Ok { body; _ } when body = Printf.sprintf "/%d" i ->
                    results.(i) <- true
                | Ok _ | Error _ -> ())
              ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun i ok -> Alcotest.(check bool) (Printf.sprintf "req %d" i) true ok)
        results)

let test_connection_refused () =
  match
    Http.request ~timeout_s:0.5 ~host:"127.0.0.1" ~port:1 ~meth:"GET" ~path:"/" ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected connection failure"

let test_query_params () =
  let check label expect path =
    Alcotest.(check (pair string (list (pair string string))))
      label expect (Http.query_params path)
  in
  check "no query" ("/kv/a", []) "/kv/a";
  check "key and value" ("/tx", [ ("replica", "1"); ("wait", "true") ])
    "/tx?replica=1&wait=true";
  check "key without =" ("/tx", [ ("wait", ""); ("replica", "2") ])
    "/tx?wait&replica=2";
  check "empty value" ("/tx", [ ("replica", "") ]) "/tx?replica=";
  check "only the first ? splits" ("/a", [ ("k", "v?w=x") ]) "/a?k=v?w=x"

let suite =
  [
    Alcotest.test_case "GET" `Quick test_get;
    Alcotest.test_case "query params" `Quick test_query_params;
    Alcotest.test_case "POST body" `Quick test_post_body;
    Alcotest.test_case "status codes" `Quick test_status_codes;
    Alcotest.test_case "handler exception = 500" `Quick test_handler_exception_is_500;
    Alcotest.test_case "binary body" `Quick test_binary_body;
    Alcotest.test_case "concurrent requests" `Quick test_concurrent_requests;
    Alcotest.test_case "connection refused" `Quick test_connection_refused;
  ]
