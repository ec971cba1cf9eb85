module Json = Bamboo_util.Json

type protocol = Hotstuff | Twochain | Streamlet | Fasthotstuff

type strategy = Honest | Silence | Fork

type election = Rotation | Static of int | Hashed

type propose_policy = Immediate | Wait_timeout

type trace_format = Jsonl | Chrome

type t = {
  protocol : protocol;
  n : int;
  byz_no : int;
  strategy : strategy;
  election : election;
  bsize : int;
  memsize : int;
  psize : int;
  timeout : float;
  backoff : float;
  propose_policy : propose_policy;
  tc_adopt_qc : bool;
  echo : bool option;
  runtime : float;
  warmup : float;
  mu : float;
  sigma : float;
  extra_delay_mu : float;
  extra_delay_sigma : float;
  loss : float;
  bandwidth : float;
  cpu_op : float;
  cpu_per_tx : float;
  seed : int;
  jobs : int;
  trace_file : string option;
  trace_format : trace_format;
  probe_interval : float; (* seconds; 0 = probing disabled *)
  faults : Bamboo_faults.Schedule.t;
}

let default =
  {
    protocol = Hotstuff;
    n = 4;
    byz_no = 0;
    strategy = Honest;
    election = Rotation;
    bsize = 400;
    memsize = 100_000;
    psize = 0;
    timeout = 0.1;
    backoff = 1.0;
    propose_policy = Immediate;
    tc_adopt_qc = false;
    echo = None;
    runtime = 10.0;
    warmup = 1.0;
    mu = 0.0005;
    sigma = 0.0001;
    extra_delay_mu = 0.0;
    extra_delay_sigma = 0.0;
    loss = 0.0;
    bandwidth = 125_000_000.0 (* 1 Gbit/s *);
    cpu_op = 0.00015 (* 150 us per sign/verify, a secp256k1 op in Go *);
    cpu_per_tx = 0.0000005 (* 0.5 us per tx *);
    seed = 42;
    jobs = Domain.recommended_domain_count ();
    trace_file = None;
    trace_format = Jsonl;
    probe_interval = 0.0;
    faults = Bamboo_faults.Schedule.empty;
  }

let quorum_size t = (2 * ((t.n - 1) / 3)) + 1

let protocol_name = function
  | Hotstuff -> "hotstuff"
  | Twochain -> "twochain"
  | Streamlet -> "streamlet"
  | Fasthotstuff -> "fasthotstuff"

let protocol_of_name = function
  | "hotstuff" | "hs" -> Ok Hotstuff
  | "twochain" | "2chs" -> Ok Twochain
  | "streamlet" | "sl" -> Ok Streamlet
  | "fasthotstuff" | "fhs" -> Ok Fasthotstuff
  | s -> Error (Printf.sprintf "unknown protocol %S" s)

let strategy_name = function
  | Honest -> "honest"
  | Silence -> "silence"
  | Fork -> "fork"

let strategy_of_name = function
  | "honest" -> Ok Honest
  | "silence" -> Ok Silence
  | "fork" | "forking" -> Ok Fork
  | s -> Error (Printf.sprintf "unknown strategy %S" s)

let trace_format_name = function Jsonl -> "jsonl" | Chrome -> "chrome"

let trace_format_of_name = function
  | "jsonl" -> Ok Jsonl
  | "chrome" -> Ok Chrome
  | s -> Error (Printf.sprintf "unknown trace format %S" s)

(* Every float field, by its JSON name. NaN fails every [<] and [<=]
   check below, so non-finite values are rejected before range checks. *)
let float_fields t =
  [
    ("timeout", t.timeout); ("backoff", t.backoff); ("runtime", t.runtime);
    ("warmup", t.warmup); ("mu", t.mu); ("sigma", t.sigma);
    ("delay", t.extra_delay_mu); ("delaySigma", t.extra_delay_sigma);
    ("loss", t.loss); ("bandwidth", t.bandwidth); ("cpuOp", t.cpu_op);
    ("cpuPerTx", t.cpu_per_tx); ("probeInterval", t.probe_interval);
  ]

let check_ranges t =
  let f = (t.n - 1) / 3 in
  if t.n <= 0 then Error "n must be positive"
  else if t.byz_no < 0 then Error "byzNo must be non-negative"
  else if t.byz_no > f then
    Error (Printf.sprintf "byzNo %d exceeds fault bound f = %d" t.byz_no f)
  else if t.bsize <= 0 then Error "bsize must be positive"
  else if t.memsize <= 0 then Error "memsize must be positive"
  else if t.psize < 0 then Error "psize must be non-negative"
  else if t.timeout <= 0.0 then Error "timeout must be positive"
  else if t.backoff < 1.0 then Error "backoff must be >= 1"
  else if t.runtime <= 0.0 then Error "runtime must be positive"
  else if t.warmup < 0.0 then Error "warmup must be non-negative"
  else if t.runtime <= t.warmup then
    Error
      (Printf.sprintf
         "runtime %gs must exceed the warmup %gs (no measurement window)"
         t.runtime t.warmup)
  else if t.mu < 0.0 || t.sigma < 0.0 then Error "network delay must be non-negative"
  else if t.loss < 0.0 || t.loss >= 1.0 then Error "loss must be in [0, 1)"
  else if t.bandwidth <= 0.0 then Error "bandwidth must be positive"
  else if t.cpu_op < 0.0 || t.cpu_per_tx < 0.0 then Error "CPU costs must be non-negative"
  else if t.probe_interval < 0.0 then Error "probe interval must be non-negative"
  else if t.jobs < 1 then
    Error "jobs must be >= 1 (number of parallel experiment workers)"
  else
    match t.election with
    | Static i when i < 0 || i >= t.n -> Error "static leader out of range"
    | Static _ | Rotation | Hashed -> (
        match Bamboo_faults.Schedule.validate ~n:t.n t.faults with
        | Ok _ -> Ok t
        | Error e -> Error ("faults: " ^ e))

let validate t =
  match List.find_opt (fun (_, v) -> not (Float.is_finite v)) (float_fields t) with
  | Some (name, v) -> Error (Printf.sprintf "%s must be a finite number, got %g" name v)
  | None -> check_ranges t

let to_json t =
  let election =
    match t.election with
    | Rotation -> Json.Int 0
    | Static i -> Json.Int (i + 1) (* Table I: master id, 0 = rotating *)
    | Hashed -> Json.String "hashed"
  in
  Json.Obj
    [
      ("protocol", Json.String (protocol_name t.protocol));
      ("n", Json.Int t.n);
      ("byzNo", Json.Int t.byz_no);
      ("strategy", Json.String (strategy_name t.strategy));
      ("master", election);
      ("bsize", Json.Int t.bsize);
      ("memsize", Json.Int t.memsize);
      ("psize", Json.Int t.psize);
      ("timeout", Json.Float (t.timeout *. 1000.0));
      ("backoff", Json.Float t.backoff);
      ( "proposePolicy",
        Json.String
          (match t.propose_policy with
          | Immediate -> "immediate"
          | Wait_timeout -> "wait_timeout") );
      ("tcAdoptQc", Json.Bool t.tc_adopt_qc);
      ( "echo",
        match t.echo with None -> Json.Null | Some b -> Json.Bool b );
      ("runtime", Json.Float t.runtime);
      ("warmup", Json.Float t.warmup);
      ("mu", Json.Float (t.mu *. 1000.0));
      ("sigma", Json.Float (t.sigma *. 1000.0));
      ("delay", Json.Float (t.extra_delay_mu *. 1000.0));
      ("delaySigma", Json.Float (t.extra_delay_sigma *. 1000.0));
      ("loss", Json.Float t.loss);
      ("bandwidth", Json.Float t.bandwidth);
      ("cpuOp", Json.Float (t.cpu_op *. 1e6));
      ("cpuPerTx", Json.Float (t.cpu_per_tx *. 1e6));
      ("seed", Json.Int t.seed);
      ("jobs", Json.Int t.jobs);
      ( "trace",
        match t.trace_file with None -> Json.Null | Some f -> Json.String f );
      ("traceFormat", Json.String (trace_format_name t.trace_format));
      ("probeInterval", Json.Float (t.probe_interval *. 1000.0));
      ("faults", Bamboo_faults.Schedule.to_json t.faults);
    ]

let known_fields =
  [
    "protocol"; "n"; "byzNo"; "strategy"; "master"; "bsize"; "memsize";
    "psize"; "timeout"; "backoff"; "proposePolicy"; "tcAdoptQc"; "echo"; "runtime";
    "warmup";
    "mu"; "sigma"; "delay"; "delaySigma"; "loss"; "bandwidth"; "cpuOp"; "cpuPerTx";
    "seed"; "jobs"; "trace"; "traceFormat"; "probeInterval"; "faults";
  ]

let of_json json =
  match json with
  | Json.Obj fields -> (
      match
        List.find_opt (fun (k, _) -> not (List.mem k known_fields)) fields
      with
      | Some (k, _) -> Error (Printf.sprintf "unknown configuration field %S" k)
      | None -> (
          let get name f default_v =
            match Json.member name json with Json.Null -> default_v | v -> f v
          in
          try
            let protocol =
              match Json.member "protocol" json with
              | Json.Null -> Ok default.protocol
              | v -> protocol_of_name (Json.get_string v)
            in
            let strategy =
              match Json.member "strategy" json with
              | Json.Null -> Ok default.strategy
              | v -> strategy_of_name (Json.get_string v)
            in
            let election =
              match Json.member "master" json with
              | Json.Null -> Ok default.election
              | Json.Int 0 -> Ok Rotation
              | Json.Int i -> Ok (Static (i - 1))
              | Json.String "hashed" -> Ok Hashed
              | _ -> Error "master must be an id or \"hashed\""
            in
            let propose_policy =
              match Json.member "proposePolicy" json with
              | Json.Null -> Ok default.propose_policy
              | Json.String "immediate" -> Ok Immediate
              | Json.String "wait_timeout" -> Ok Wait_timeout
              | _ -> Error "bad proposePolicy"
            in
            let trace_format =
              match Json.member "traceFormat" json with
              | Json.Null -> default.trace_format
              | v -> (
                  match trace_format_of_name (Json.get_string v) with
                  | Ok f -> f
                  | Error e -> raise (Invalid_argument e))
            in
            match (protocol, strategy, election, propose_policy) with
            | Ok protocol, Ok strategy, Ok election, Ok propose_policy ->
                validate
                  {
                    protocol;
                    strategy;
                    election;
                    propose_policy;
                    tc_adopt_qc =
                      get "tcAdoptQc" Json.to_bool default.tc_adopt_qc;
                    echo =
                      (match Json.member "echo" json with
                      | Json.Null -> default.echo
                      | v -> Some (Json.to_bool v));
                    n = get "n" Json.to_int default.n;
                    byz_no = get "byzNo" Json.to_int default.byz_no;
                    bsize = get "bsize" Json.to_int default.bsize;
                    memsize = get "memsize" Json.to_int default.memsize;
                    psize = get "psize" Json.to_int default.psize;
                    timeout =
                      get "timeout" (fun v -> Json.to_float v /. 1000.0)
                        default.timeout;
                    backoff = get "backoff" Json.to_float default.backoff;
                    runtime = get "runtime" Json.to_float default.runtime;
                    warmup = get "warmup" Json.to_float default.warmup;
                    mu = get "mu" (fun v -> Json.to_float v /. 1000.0) default.mu;
                    sigma =
                      get "sigma" (fun v -> Json.to_float v /. 1000.0)
                        default.sigma;
                    extra_delay_mu =
                      get "delay" (fun v -> Json.to_float v /. 1000.0)
                        default.extra_delay_mu;
                    extra_delay_sigma =
                      get "delaySigma" (fun v -> Json.to_float v /. 1000.0)
                        default.extra_delay_sigma;
                    loss = get "loss" Json.to_float default.loss;
                    bandwidth = get "bandwidth" Json.to_float default.bandwidth;
                    cpu_op =
                      get "cpuOp" (fun v -> Json.to_float v /. 1e6) default.cpu_op;
                    cpu_per_tx =
                      get "cpuPerTx" (fun v -> Json.to_float v /. 1e6)
                        default.cpu_per_tx;
                    seed = get "seed" Json.to_int default.seed;
                    jobs = get "jobs" Json.to_int default.jobs;
                    trace_file =
                      (match Json.member "trace" json with
                      | Json.Null -> default.trace_file
                      | v -> Some (Json.get_string v));
                    trace_format;
                    probe_interval =
                      get "probeInterval"
                        (fun v -> Json.to_float v /. 1000.0)
                        default.probe_interval;
                    faults =
                      (match
                         Bamboo_faults.Schedule.of_json
                           (Json.member "faults" json)
                       with
                      | Ok s -> s
                      | Error e -> raise (Invalid_argument e));
                  }
            | Error e, _, _, _ | _, Error e, _, _ | _, _, Error e, _ | _, _, _, Error e
              ->
                Error e
          with Invalid_argument msg -> Error msg))
  | _ -> Error "configuration must be a JSON object"

let pp fmt t =
  Format.fprintf fmt
    "%s n=%d byz=%d/%s bsize=%d psize=%d timeout=%.0fms mu=%.2fms"
    (protocol_name t.protocol) t.n t.byz_no (strategy_name t.strategy) t.bsize
    t.psize (t.timeout *. 1000.0) (t.mu *. 1000.0)
