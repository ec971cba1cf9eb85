module Config = Bamboo.Config
module Json = Bamboo_util.Json

let test_defaults () =
  let d = Config.default in
  Alcotest.(check int) "n" 4 d.n;
  Alcotest.(check int) "bsize" 400 d.bsize;
  Alcotest.(check int) "psize" 0 d.psize;
  Alcotest.(check (float 0.0)) "timeout 100ms" 0.1 d.timeout;
  Alcotest.(check int) "byzNo" 0 d.byz_no;
  Alcotest.(check bool) "rotating" true (d.election = Config.Rotation);
  Alcotest.(check bool) "validates" true (Config.validate d = Ok d)

let test_quorum_size () =
  Alcotest.(check int) "n=4" 3 (Config.quorum_size Config.default);
  Alcotest.(check int) "n=32" 21
    (Config.quorum_size { Config.default with n = 32 })

(* Every name a table prints parses back to its value, each alias parses
   to its value and prints as the canonical name, and an unknown name is
   an error. The JSON configuration and the command line share these
   tables. *)
let check_names ~what ~of_name ~name ~all ~aliases ~unknown =
  List.iter
    (fun v ->
      match of_name (name v) with
      | Ok v' -> Alcotest.(check string) (what ^ " round trip") (name v) (name v')
      | Error e -> Alcotest.fail e)
    all;
  List.iter
    (fun (alias, v) ->
      match of_name alias with
      | Ok v' -> Alcotest.(check string) (what ^ " alias " ^ alias) (name v) (name v')
      | Error e -> Alcotest.fail e)
    aliases;
  Alcotest.(check bool) (what ^ " unknown") true
    (Result.is_error (of_name unknown))

let test_protocol_names () =
  check_names ~what:"protocol" ~of_name:Config.protocol_of_name
    ~name:Config.protocol_name
    ~all:[ Config.Hotstuff; Config.Twochain; Config.Streamlet; Config.Fasthotstuff ]
    ~aliases:
      [
        ("hs", Config.Hotstuff); ("2chs", Config.Twochain);
        ("sl", Config.Streamlet); ("fhs", Config.Fasthotstuff);
      ]
    ~unknown:"pbft"

let test_strategy_and_trace_format_names () =
  check_names ~what:"strategy" ~of_name:Config.strategy_of_name
    ~name:Config.strategy_name
    ~all:[ Config.Honest; Config.Silence; Config.Fork ]
    ~aliases:[ ("forking", Config.Fork) ]
    ~unknown:"nope";
  check_names ~what:"trace format" ~of_name:Config.trace_format_of_name
    ~name:Config.trace_format_name
    ~all:[ Config.Jsonl; Config.Chrome ]
    ~aliases:[] ~unknown:"csv"

let test_validation_errors () =
  let expect_error c =
    match Config.validate c with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "expected validation error"
  in
  expect_error { Config.default with n = 0 };
  expect_error { Config.default with byz_no = 2 } (* f(4) = 1 *);
  expect_error { Config.default with bsize = 0 };
  expect_error { Config.default with psize = -1 };
  expect_error { Config.default with timeout = 0.0 };
  expect_error { Config.default with backoff = 0.9 };
  expect_error { Config.default with runtime = 0.0 };
  expect_error { Config.default with bandwidth = 0.0 };
  expect_error { Config.default with election = Config.Static 9 }

(* NaN fails every ordered comparison, so range checks alone let it
   through; each float field must reject NaN and both infinities. *)
let test_non_finite_rejected () =
  let setters =
    [
      ("timeout", fun c v -> { c with Config.timeout = v });
      ("backoff", fun c v -> { c with Config.backoff = v });
      ("runtime", fun c v -> { c with Config.runtime = v });
      ("warmup", fun c v -> { c with Config.warmup = v });
      ("mu", fun c v -> { c with Config.mu = v });
      ("sigma", fun c v -> { c with Config.sigma = v });
      ("delay", fun c v -> { c with Config.extra_delay_mu = v });
      ("delaySigma", fun c v -> { c with Config.extra_delay_sigma = v });
      ("loss", fun c v -> { c with Config.loss = v });
      ("bandwidth", fun c v -> { c with Config.bandwidth = v });
      ("cpuOp", fun c v -> { c with Config.cpu_op = v });
      ("cpuPerTx", fun c v -> { c with Config.cpu_per_tx = v });
      ("probeInterval", fun c v -> { c with Config.probe_interval = v });
    ]
  in
  List.iter
    (fun (name, set) ->
      List.iter
        (fun v ->
          match Config.validate (set Config.default v) with
          | Error e ->
              Alcotest.(check string)
                (Printf.sprintf "%s = %g" name v)
                (Printf.sprintf "%s must be a finite number, got %g" name v)
                e
          | Ok _ -> Alcotest.failf "%s = %g accepted" name v)
        [ Float.nan; Float.infinity; Float.neg_infinity ])
    setters

let test_workload_rate_rejected () =
  List.iter
    (fun rate ->
      match Bamboo.Workload.open_loop ~rate () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "rate %g accepted" rate)
    [ Float.nan; Float.infinity; Float.neg_infinity; -1.0 ];
  match Bamboo.Workload.open_loop ~rate:0.0 () with
  | Bamboo.Workload.Open_loop { rate; _ } ->
      Alcotest.(check (float 0.0)) "rate 0 allowed" 0.0 rate
  | Bamboo.Workload.Closed_loop _ -> Alcotest.fail "wrong shape"

let test_byz_bound_scales () =
  let c = { Config.default with n = 32; byz_no = 10 } in
  Alcotest.(check bool) "f(32)=10 ok" true (Config.validate c = Ok c);
  match Config.validate { c with byz_no = 11 } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "byz 11 of 32 accepted"

let test_json_round_trip () =
  let c =
    {
      Config.default with
      protocol = Config.Streamlet;
      n = 8;
      byz_no = 2;
      strategy = Config.Fork;
      election = Config.Static 3;
      bsize = 100;
      psize = 128;
      timeout = 0.05;
      backoff = 1.5;
      propose_policy = Config.Wait_timeout;
      tc_adopt_qc = true;
      echo = Some false;
      extra_delay_mu = 0.005;
      seed = 99;
    }
  in
  match Config.of_json (Config.to_json c) with
  | Ok c' -> Alcotest.(check bool) "round trip" true (c = c')
  | Error e -> Alcotest.fail e

let test_json_defaults_fill_in () =
  match Config.of_json (Json.of_string {|{"n": 7, "bsize": 50}|}) with
  | Ok c ->
      Alcotest.(check int) "n" 7 c.n;
      Alcotest.(check int) "bsize" 50 c.bsize;
      Alcotest.(check int) "psize default" Config.default.psize c.psize;
      Alcotest.(check bool) "protocol default" true
        (c.protocol = Config.default.protocol)
  | Error e -> Alcotest.fail e

let test_json_master_semantics () =
  (* Table I: master = 0 means rotating, otherwise a static leader id. *)
  (match Config.of_json (Json.of_string {|{"master": 0}|}) with
  | Ok c -> Alcotest.(check bool) "0 = rotation" true (c.election = Config.Rotation)
  | Error e -> Alcotest.fail e);
  match Config.of_json (Json.of_string {|{"master": 2}|}) with
  | Ok c -> Alcotest.(check bool) "2 = static 1" true (c.election = Config.Static 1)
  | Error e -> Alcotest.fail e

let test_json_unknown_field_rejected () =
  match Config.of_json (Json.of_string {|{"nn": 4}|}) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown field accepted"

let test_json_invalid_values () =
  (match Config.of_json (Json.of_string {|{"protocol": "pbft"}|}) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad protocol accepted");
  (match Config.of_json (Json.of_string {|{"n": 0}|}) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invalid n accepted");
  match Config.of_json (Json.of_string {|[1]|}) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-object accepted"

let test_json_ms_units () =
  (* timeout/mu/delay are expressed in milliseconds in the JSON form. *)
  match Config.of_json (Json.of_string {|{"timeout": 50, "delay": 5}|}) with
  | Ok c ->
      Alcotest.(check (float 1e-9)) "timeout s" 0.05 c.timeout;
      Alcotest.(check (float 1e-9)) "delay s" 0.005 c.extra_delay_mu
  | Error e -> Alcotest.fail e

let test_jobs_field () =
  (match Config.validate { Config.default with jobs = 0 } with
  | Error e ->
      Alcotest.(check bool) "mentions jobs" true
        (String.length e >= 4 && String.sub e 0 4 = "jobs")
  | Ok _ -> Alcotest.fail "jobs = 0 accepted");
  Alcotest.(check bool) "default >= 1" true (Config.default.jobs >= 1);
  let c = { Config.default with jobs = 3 } in
  (match Config.of_json (Config.to_json c) with
  | Ok c' -> Alcotest.(check int) "round trip" 3 c'.Config.jobs
  | Error e -> Alcotest.fail e);
  match Config.of_json (Json.of_string {|{"jobs": 0}|}) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "jobs = 0 from JSON accepted"

let suite =
  [
    Alcotest.test_case "defaults" `Quick test_defaults;
    Alcotest.test_case "jobs field" `Quick test_jobs_field;
    Alcotest.test_case "quorum size" `Quick test_quorum_size;
    Alcotest.test_case "protocol names" `Quick test_protocol_names;
    Alcotest.test_case "strategy and trace format names" `Quick
      test_strategy_and_trace_format_names;
    Alcotest.test_case "validation errors" `Quick test_validation_errors;
    Alcotest.test_case "non-finite values rejected" `Quick
      test_non_finite_rejected;
    Alcotest.test_case "workload rate rejected" `Quick
      test_workload_rate_rejected;
    Alcotest.test_case "byz bound scales" `Quick test_byz_bound_scales;
    Alcotest.test_case "json round trip" `Quick test_json_round_trip;
    Alcotest.test_case "json defaults" `Quick test_json_defaults_fill_in;
    Alcotest.test_case "json master semantics" `Quick test_json_master_semantics;
    Alcotest.test_case "json unknown field" `Quick test_json_unknown_field_rejected;
    Alcotest.test_case "json invalid values" `Quick test_json_invalid_values;
    Alcotest.test_case "json ms units" `Quick test_json_ms_units;
  ]
