(* The benchmark harness. perfbench/run.py builds it and drives it; see
   perfbench/README.md.

     perfbench.exe run    --workload W --seed S --seconds T --trace 0|1 --workdir D [--part I]
     perfbench.exe setup  --workload W --seed S
     perfbench.exe record

   [run] and [setup] print READY once set-up is done (the runner times
   set-up up to that line); [run] then measures and prints one result
   line of JSON and exits 1 if a correctness gate failed. [record] prints
   the gated outputs of the current revision as OCaml source for
   pb_expected.ml. *)

type workload = Sim of Pb_sim.kind | Tcp

let workload_of_name = function
  | "sim_table2" -> Some (Sim Pb_sim.Table2)
  | "sim_n64_lowload" -> Some (Sim Pb_sim.N64)
  | "tcp_n4" -> Some Tcp
  | _ -> None

let usage () =
  prerr_endline
    "usage: perfbench.exe (run|setup) --workload W --seed S [--seconds T] \
     [--trace 0|1] [--workdir DIR]\n\
    \       perfbench.exe record";
  exit 2

let arg name =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 2

let int_arg name ~default =
  match arg name with
  | None -> default
  | Some s -> ( match int_of_string_opt s with Some v -> v | None -> usage ())

let ready () = print_endline "READY"

let run_sim kind ~seed ~seconds ~traced ~spans =
  let ctx = Pb_sim.prepare kind ~seed in
  ready ();
  if traced then
    let r = Pb_sim.measure_traced ctx ~seconds ~spans in
    let r =
      {
        r with
        metrics =
          r.Pb_out.metrics
          @ [
              Pb_out.m "failed_ratio" "ratio"
                (float_of_int r.failed /. float_of_int (max 1 r.attempted));
            ];
      }
    in
    Pb_out.add_zeros r Pb_out.not_applicable_on_sim
  else Pb_sim.measure ctx ~seconds

let run_tcp ~seed ~part ~seconds ~traced ~spans ~workdir =
  let cl =
    Pb_spans.with_span spans "set-up" (fun _ -> Pb_tcp.start (module Pb_tcp.Plain) ())
  in
  ready ();
  if traced then
    Pb_out.add_zeros
      (Pb_tcp.measure_traced cl ~seed ~seconds ~spans ~workdir)
      Pb_out.not_applicable_on_tcp
  else Pb_tcp.measure cl ~seed ~part ~seconds

let run () =
  let workload =
    match Option.bind (arg "--workload") workload_of_name with
    | Some w -> w
    | None -> usage ()
  in
  let seed = int_arg "--seed" ~default:1 in
  let seconds =
    match Option.map float_of_string_opt (arg "--seconds") with
    | None -> 10.0
    | Some (Some s) when s > 0.0 -> s
    | Some _ -> usage ()
  in
  let part = int_arg "--part" ~default:0 in
  let traced = int_arg "--trace" ~default:0 = 1 in
  let workdir = Option.value (arg "--workdir") ~default:Filename.current_dir_name in
  let spans = Pb_spans.create ~enabled:traced in
  let r =
    match workload with
    | Sim kind -> run_sim kind ~seed ~seconds ~traced ~spans
    | Tcp -> run_tcp ~seed ~part ~seconds ~traced ~spans ~workdir
  in
  let r =
    if traced then begin
      let path = Filename.concat workdir "spans.json" in
      Pb_spans.write spans path;
      Printf.eprintf "perfbench: %d spans written to %s\n" (Pb_spans.count spans) path;
      {
        r with
        Pb_out.metrics =
          r.Pb_out.metrics
          @ [ Pb_out.m "trace.spans" "count" (float_of_int (Pb_spans.count spans)) ];
      }
    end
    else r
  in
  exit (if Pb_out.print r then 0 else 1)

let setup () =
  let workload =
    match Option.bind (arg "--workload") workload_of_name with
    | Some w -> w
    | None -> usage ()
  in
  let seed = int_arg "--seed" ~default:1 in
  match workload with
  | Sim kind ->
      ignore (Pb_sim.prepare kind ~seed : Pb_sim.ctx);
      ready ()
  | Tcp ->
      let cl = Pb_tcp.start (module Pb_tcp.Plain) () in
      ready ();
      ignore (Pb_tcp.stop cl : Bamboo.Threaded_runtime.report)

let record () =
  let seeds = List.init Pb_gate.recorded_seeds (fun i -> 42 + i) in
  let entries kind key =
    List.map
      (fun cfg_seed ->
        let ctx = Pb_sim.prepare kind ~seed:(cfg_seed - 42) in
        assert (ctx.Pb_sim.cfg_seed = cfg_seed);
        Printf.sprintf "  (%d, %S);" cfg_seed (key ctx (Pb_sim.untraced_unit ctx)))
      seeds
  in
  let table2 ctx cells =
    ignore (ctx : Pb_sim.ctx);
    Pb_gate.rows_key (Pb_sim.table2_rows cells)
  in
  let n64 _ cells = Pb_gate.fingerprint_key (Pb_sim.fingerprint (List.hd cells)) in
  print_endline "(* Recorded by [perfbench.exe record]; see README.md. *)\n";
  Printf.printf "let table2 =\n  [\n%s\n  ]\n\n"
    (String.concat "\n" (entries Pb_sim.Table2 table2));
  Printf.printf "let n64 =\n  [\n%s\n  ]\n" (String.concat "\n" (entries Pb_sim.N64 n64))

let () =
  if Array.length Sys.argv < 2 then usage ();
  match Sys.argv.(1) with
  | "run" -> run ()
  | "setup" -> setup ()
  | "record" -> record ()
  | _ -> usage ()
