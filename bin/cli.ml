(* The command-line layer every [bamboo] subcommand shares: converters
   built on the configuration's own name tables, bounded numbers, the
   JSON file loader, the "open or exit 2" writer, and the invariant
   checker's flags and report. A value a converter rejects is a usage
   error: cmdliner names the flag on stderr and [bamboo] exits 2. *)

open Cmdliner
module Config = Bamboo.Config
module Monitor = Bamboo_check.Monitor
module Json = Bamboo_util.Json

let named of_name name =
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (of_name s)),
      fun fmt v -> Format.pp_print_string fmt (name v) )

let protocol = named Config.protocol_of_name Config.protocol_name
let strategy = named Config.strategy_of_name Config.strategy_name
let trace_format = named Config.trace_format_of_name Config.trace_format_name

(* [conv] restricted to the values [ok] accepts; the error says [s is
   not <what>]. *)
let restrict conv ok what =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when not (ok v) -> Error (`Msg (Printf.sprintf "%s is not %s" s what))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer conv)

(* [conv] restricted to values of at least [lo]; NaN is not. *)
let at_least conv lo =
  restrict conv
    (fun v -> v >= lo)
    (Format.asprintf "at least %a" (Arg.conv_printer conv) lo)

(* A TCP port number. *)
let port = restrict Arg.int (fun p -> 0 <= p && p <= 65535) "a port in [0, 65535]"

(* Read [path] as JSON and decode it with [of_json]; any failure is a
   usage error naming the file. *)
let load_json of_json path =
  let fail e =
    Printf.eprintf "error in %s: %s\n" path e;
    exit 2
  in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e ->
      Printf.eprintf "bamboo: %s\n" e;
      exit 2
  | raw -> (
      match Json.of_string raw with
      | exception Json.Parse_error e -> fail ("invalid JSON: " ^ e)
      | json -> ( match of_json json with Ok v -> v | Error e -> fail e))

let open_out_or_exit path =
  try open_out path
  with Sys_error e ->
    Printf.eprintf "bamboo: cannot write %s\n" e;
    exit 2

let write_file path contents =
  let oc = open_out_or_exit path in
  output_string oc contents;
  close_out oc

let write_json path json =
  write_file path (Json.to_string ~indent:true json ^ "\n")

(* --- the invariant checker's flags (check fuzz, replay, explore) --- *)

let protocols_t =
  let all = Config.[ Hotstuff; Twochain; Streamlet; Fasthotstuff ] in
  let names = Arg.list protocol in
  let parse s =
    match Arg.conv_parser names s with
    | Ok [] -> Error (`Msg "must name at least one protocol")
    | r -> r
  in
  Arg.(
    value
    & opt (conv (parse, conv_printer names)) all
    & info [ "protocols" ] ~docv:"NAMES"
        ~doc:"Comma-separated protocols to check.")

let opts_t =
  let recover_views =
    Arg.(
      value
      & opt (at_least int 1) Monitor.default_opts.Monitor.recover_views
      & info [ "recover-views" ] ~docv:"VIEWS"
          ~doc:
            "Bounded-liveness budget: after the last fault heals, a commit \
             must land within $(docv) view timeouts.")
  in
  Term.(const (fun recover_views -> { Monitor.recover_views }) $ recover_views)

let wrap_t =
  let plant =
    Arg.(
      value & flag
      & info [ "plant-broken-voting" ]
          ~doc:
            "Self-test of the oracle: plant a deliberately unsafe voting \
             rule (ignores the lock) in every replica so the agreement \
             monitor has a real violation to catch. Never use for \
             protocol measurements.")
  in
  Term.(
    const (fun plant ->
        if plant then Some Bamboo_check.Fuzz.broken_voting_rule else None)
    $ plant)

let print_violations (r : Monitor.report) =
  List.iter
    (fun (v : Monitor.violation) ->
      Printf.printf "  FAIL %s: %s\n"
        (Monitor.invariant_name v.Monitor.invariant)
        v.Monitor.detail)
    r.Monitor.violations

let print_report label (r : Monitor.report) =
  List.iter
    (fun ((inv : Monitor.invariant), reason) ->
      Printf.printf "  skip %s: %s\n" (Monitor.invariant_name inv) reason)
    r.Monitor.skipped;
  print_violations r;
  if Monitor.pass r then Printf.printf "  pass %s\n" label
