(* Command-line front end, shared by the standalone [bamboo_lint]
   executable and the [bamboo lint] subcommand.

   Exit codes follow the repository-wide contract (README "Exit
   codes"): 0 = clean (warnings allowed), 1 = at least one
   error-severity finding (including orphan suppressions), 2 = usage or
   I/O error. *)

open Cmdliner
module E = Lint_engine
module Json = Bamboo_util.Json

(* The exit statuses every bamboo command documents in its help, the
   standalone [bamboo_lint] and the main [bamboo] CLI alike. *)
let exits =
  Cmd.Exit.
    [
      info 0 ~doc:"on success, with every checked invariant holding.";
      info 1
        ~doc:
          "when an invariant is violated: a safety violation or \
           inconsistent prefixes, a failing check scenario, an \
           error-severity lint finding.";
      info 2
        ~doc:
          "on a usage, configuration or input file error, or an internal \
           error.";
    ]

let default_paths = [ "lib"; "bin"; "examples" ]

let paths_t =
  Arg.(
    value
    & pos_all string default_paths
    & info [] ~docv:"PATH"
        ~doc:
          "Files or directories to lint (default: $(b,lib) $(b,bin) \
           $(b,examples)).")

let json_t =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit the machine-readable report as JSON on stdout.")

let out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:
          "Also write the JSON report to $(docv) (written even when \
           findings fail the run, so CI can upload it as an artifact).")

let rules_t =
  Arg.(
    value & flag
    & info [ "rules" ] ~doc:"List the registered rules and exit.")

let since_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "since" ] ~docv:"REF"
        ~doc:
          "Incremental mode: lint only the files changed relative to git \
           $(docv) (per $(b,git diff --name-only)). Cross-file pre-passes \
           still read the whole tree, so findings match a full run's on \
           the changed files.")

(* Files changed vs [ref_], as repo-relative paths. *)
let changed_since ref_ =
  let cmd = Printf.sprintf "git diff --name-only %s" (Filename.quote ref_) in
  let ic = Unix.open_process_in cmd in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Ok lines
  | Unix.WEXITED n ->
      Error (Printf.sprintf "git diff --name-only %s failed with exit %d" ref_ n)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
      Error (Printf.sprintf "git diff --name-only %s was interrupted" ref_)

(* The linter sees paths as given on the command line ("lib/a/b.ml", or
   absolute when the caller passed one); git prints repo-relative paths.
   Match on segment suffixes so both spellings of the same file agree. *)
let since_filter changed path =
  let suffix_of short long =
    let rec go l =
      l = short || match l with [] -> false | _ :: tl -> go tl
    in
    go long
  in
  let segs = E.segments path in
  List.exists
    (fun c ->
      let csegs = E.segments c in
      suffix_of csegs segs || suffix_of segs csegs)
    changed

let list_rules () =
  List.iter
    (fun (r : E.rule) ->
      Printf.printf "%-26s %-5s %s\n    protects: %s\n" r.E.id
        (E.severity_name r.E.severity)
        r.E.summary r.E.protects)
    Lint_rules.all

let run rules_flag json out since paths =
  if rules_flag then begin
    list_rules ();
    exit 0
  end;
  let only =
    match since with
    | None -> None
    | Some ref_ -> (
        match changed_since ref_ with
        | Error msg ->
            Printf.eprintf "bamboo-lint: %s\n" msg;
            exit 2
        | Ok changed -> Some (since_filter changed))
  in
  match E.lint_paths ?only ~rules:Lint_rules.all paths with
  | Error msg ->
      Printf.eprintf "bamboo-lint: %s\n" msg;
      exit 2
  | Ok (files, findings) ->
      let report = E.report_to_json ~files findings in
      (match out with
      | None -> ()
      | Some path -> (
          match open_out path with
          | exception Sys_error e ->
              Printf.eprintf "bamboo-lint: cannot write report: %s\n" e;
              exit 2
          | oc ->
              output_string oc (Json.to_string ~indent:true report);
              output_char oc '\n';
              close_out oc));
      if json then print_endline (Json.to_string ~indent:true report)
      else begin
        List.iter (fun f -> print_endline (E.render f)) findings;
        Printf.printf "bamboo-lint: %d error(s), %d warning(s) in %d file(s)\n"
          (E.errors findings) (E.warnings findings) files
      end;
      exit (E.exit_code findings)

let term = Term.(const run $ rules_t $ json_t $ out_t $ since_t $ paths_t)

let doc =
  "AST-level determinism and domain-safety linter over the OCaml sources"

let main () =
  match Cmd.eval_value (Cmd.v (Cmd.info "bamboo-lint" ~exits ~version:"1.0.0" ~doc) term) with
  | Ok (`Ok ()) | Ok `Help | Ok `Version -> 0
  | Error _ -> 2
