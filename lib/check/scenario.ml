module Config = Bamboo.Config
module Schedule = Bamboo_faults.Schedule
module Rng = Bamboo_util.Rng
module Json = Bamboo_util.Json

type t = { label : string; rate : float; config : Config.t }

let pick rng arr = arr.(Rng.int rng (Array.length arr))

(* A random nonempty proper subset of [0, n), sorted. *)
let random_subset rng n =
  let ids = Array.init n Fun.id in
  Rng.shuffle rng ids;
  let k = 1 + Rng.int rng (n - 1) in
  List.sort compare (Array.to_list (Array.sub ids 0 k))

(* One random fault entry. [can_crash_forever node] limits permanent
   crashes to the fault budget; every other fault kind heals within the
   run so the bounded-liveness monitor stays applicable. *)
let random_entry rng ~n ~timeout ~can_crash_forever =
  let at = 0.3 +. Rng.float rng 1.0 in
  let until = Some (at +. 0.2 +. Rng.float rng 0.6) in
  let node () = Rng.int rng n in
  let one_src () = Schedule.Nodes [ node () ] in
  match Rng.int rng 10 with
  | 0 ->
      let a = random_subset rng n in
      { Schedule.at; until; spec = Schedule.Partition { a; b = [] } }
  | 1 ->
      let target = node () in
      let until = if can_crash_forever target && Rng.bool rng then None else until in
      { Schedule.at; until; spec = Schedule.Crash { node = target } }
  | 2 ->
      let mu = Rng.float rng (1.5 *. timeout) in
      {
        Schedule.at;
        until;
        spec =
          Schedule.Link_delay
            { src = one_src (); dst = Schedule.All; mu; sigma = mu /. 5.0 };
      }
  | 3 ->
      let lo = Rng.float rng timeout in
      let hi = lo +. Rng.float rng timeout in
      {
        Schedule.at;
        until;
        spec = Schedule.Link_spike { src = one_src (); dst = Schedule.All; lo; hi };
      }
  | 4 ->
      {
        Schedule.at;
        until;
        spec =
          Schedule.Link_loss
            {
              src = one_src ();
              dst = Schedule.All;
              rate = Rng.float rng 0.3;
            };
      }
  | 5 ->
      {
        Schedule.at;
        until;
        spec =
          Schedule.Link_dup
            { src = one_src (); dst = Schedule.All; prob = Rng.float rng 0.5 };
      }
  | 6 ->
      {
        Schedule.at;
        until;
        spec =
          Schedule.Link_reorder
            {
              src = one_src ();
              dst = Schedule.All;
              prob = Rng.float rng 0.5;
              jitter = Rng.float rng timeout;
            };
      }
  | 7 ->
      {
        Schedule.at;
        until;
        spec =
          Schedule.Cpu_slow { node = node (); factor = 1.5 +. Rng.float rng 6.5 };
      }
  | 8 ->
      {
        Schedule.at;
        until;
        spec =
          Schedule.Clock_skew
            { node = node (); factor = 0.5 +. Rng.float rng 1.5 };
      }
  | _ ->
      let lo = Rng.float rng timeout in
      let hi = lo +. Rng.float rng (0.5 *. timeout) in
      { Schedule.at; until; spec = Schedule.Fluctuation { lo; hi } }

let generate ~root_seed ~index ~protocols =
  if protocols = [] then invalid_arg "Scenario.generate: no protocols";
  (* Per-index stream: scenario [i] must not depend on scenarios [< i], so
     a parallel sweep samples the same space in any execution order. *)
  let rng = Rng.create ~seed:((root_seed * 1_000_003) + (index * 7919)) in
  let protocol = pick rng (Array.of_list protocols) in
  let n = pick rng [| 4; 4; 5; 7 |] in
  let f = (n - 1) / 3 in
  let byz_no = Rng.int rng (f + 1) in
  let strategy =
    if byz_no = 0 then Config.Honest
    else pick rng [| Config.Honest; Config.Silence; Config.Fork |]
  in
  let timeout = pick rng [| 0.03; 0.05; 0.1 |] in
  let mu = (0.5 +. Rng.float rng 3.0) /. 1000.0 in
  let bsize = pick rng [| 100; 400 |] in
  let rate = float_of_int (500 + (500 * Rng.int rng 5)) in
  let nfaults = Rng.int rng 5 in
  let crashed_forever = ref [] in
  let faults =
    List.init nfaults (fun _ ->
        let can_crash_forever node =
          let would =
            List.sort_uniq compare (node :: !crashed_forever)
          in
          byz_no + List.length would <= f
        in
        let e = random_entry rng ~n ~timeout ~can_crash_forever in
        (match e.Schedule.spec, e.Schedule.until with
        | Schedule.Crash { node }, None ->
            crashed_forever := List.sort_uniq compare (node :: !crashed_forever)
        | _ -> ());
        e)
  in
  (* Size the horizon so the liveness monitor's recovery budget fits after
     the last heal, including the clock-skew stretch it applies. *)
  let heal =
    List.fold_left
      (fun acc (e : Schedule.entry) ->
        Float.max acc (match e.until with Some u -> u | None -> e.at))
      0.0 faults
  in
  let skew =
    List.fold_left
      (fun acc (e : Schedule.entry) ->
        match e.spec with
        | Schedule.Clock_skew { factor; _ } -> Float.max acc factor
        | _ -> acc)
      1.0 faults
  in
  let budget =
    float_of_int Monitor.default_opts.Monitor.recover_views *. timeout *. skew
  in
  let runtime = Float.max 1.5 (heal +. budget +. 0.3) in
  let config =
    {
      Config.default with
      Config.protocol;
      n;
      byz_no;
      strategy;
      bsize;
      timeout;
      mu;
      sigma = mu /. 5.0;
      tc_adopt_qc = protocol = Config.Fasthotstuff;
      runtime;
      warmup = 0.25;
      seed = Rng.int rng 1_000_000;
      jobs = 1;
      faults;
    }
  in
  (match Config.validate config with
  | Ok _ -> ()
  | Error e ->
      invalid_arg
        (Printf.sprintf "Scenario.generate: invalid scenario %d: %s" index e));
  { label = Printf.sprintf "s%03d" index; rate; config }

let describe t =
  let c = t.config in
  Printf.sprintf
    "%s %-12s n=%d byz=%d/%-7s timeout=%3.0fms faults=%d rate=%4.0f \
     runtime=%.2fs seed=%d"
    t.label
    (Config.protocol_name c.Config.protocol)
    c.Config.n c.Config.byz_no
    (Config.strategy_name c.Config.strategy)
    (c.Config.timeout *. 1000.0)
    (List.length c.Config.faults)
    t.rate c.Config.runtime c.Config.seed

let to_json t =
  Json.Obj
    [
      ("label", Json.String t.label);
      ("rate", Json.Float t.rate);
      ("config", Config.to_json t.config);
    ]

let of_json json =
  match json with
  | Json.Obj _ -> (
      let label =
        match Json.member "label" json with
        | Json.String s -> Ok s
        | Json.Null -> Error "scenario: missing \"label\""
        | _ -> Error "scenario: \"label\" must be a string"
      in
      let rate =
        match Json.member "rate" json with
        | Json.Null -> Error "scenario: missing \"rate\""
        | v -> (
            try Ok (Json.to_float v)
            with Invalid_argument _ -> Error "scenario: \"rate\" must be a number")
      in
      match (label, rate) with
      | Error e, _ | _, Error e -> Error e
      | Ok label, Ok rate -> (
          match Config.of_json (Json.member "config" json) with
          | Error e -> Error ("scenario config: " ^ e)
          | Ok config -> (
              match Config.validate config with
              | Error e -> Error ("scenario config: " ^ e)
              | Ok config -> Ok { label; rate; config })))
  | _ -> Error "scenario must be a JSON object"
