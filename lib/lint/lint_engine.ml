(* AST-level linter infrastructure.

   Every headline property of this reproduction — byte-identical
   experiment output at any job count, seed-reproducible fuzzing,
   trace-validated latency decomposition — rests on coding rules (no
   ambient randomness, no wall-clock reads, no unordered Hashtbl
   iteration reaching output, no shared mutable top-level state) that
   used to live only in review comments. This module turns them into a
   compiled checker: it parses every .ml/.mli under the given roots with
   the compiler's own parser (compiler-libs) and runs a registry of
   syntactic rules (see {!Lint_rules}) over the parsetrees.

   Findings are reported as [file:line:col [rule-id] severity: message]
   and can be suppressed inline:

   - [let[@lint.allow "rule-id"] x = ...] on a value binding,
   - [(expr [@lint.allow "rule-id"])] on an expression,
   - [[@@@lint.allow "rule-id"]] floating at the top of a file.

   A suppression that matches no finding is itself an error-severity
   finding ([orphan-suppression]), so stale allowances cannot linger. *)

type severity = Error | Warn

let severity_name = function Error -> "error" | Warn -> "warn"

type finding = {
  file : string;
  line : int;  (** 1-based. *)
  col : int;  (** 0-based character offset, like the compiler's output. *)
  rule : string;
  severity : severity;
  message : string;
}

(* --- path scoping --- *)

let segments path =
  String.map (function '\\' -> '/' | c -> c) path
  |> String.split_on_char '/'
  |> List.filter (fun s -> s <> "" && s <> ".")

let under dirs segs =
  let rec starts_with prefix l =
    match (prefix, l) with
    | [], _ -> true
    | _, [] -> false
    | p :: ps, x :: xs -> String.equal p x && starts_with ps xs
  in
  let rec scan = function
    | [] -> false
    | _ :: rest as l -> starts_with dirs l || scan rest
  in
  scan segs

let under_any dirss segs = List.exists (fun dirs -> under dirs segs) dirss

(* --- rules --- *)

(* Record-field metadata collected by a pre-pass over every linted .ml
   source, so the concurrency rules can classify a [t.field] access in
   one file against a type declared in another. Lookups go by field
   name with same-file declarations taking precedence (see
   {!Lint_conc}). *)
type field_info = {
  fi_file : string;  (* file declaring the record type *)
  fi_type : string;  (* record type name *)
  fi_name : string;  (* field name *)
  fi_loc : Location.t;  (* label declaration site *)
  fi_mutable : bool;
  fi_atomic : bool;  (* declared type is Atomic.t *)
  fi_container : bool;  (* Hashtbl/Buffer/Queue/Stack/Heap/array/... *)
  fi_mutex : bool;  (* declared type is Mutex.t *)
  fi_guard : string option;  (* [@guarded_by "m"] annotation *)
  fi_allowed : string list;  (* rule ids from label-level [@lint.allow] *)
}

type rule_ctx = {
  add : Location.t -> string -> unit;
  file : string;  (** Path of the file being linted. *)
  trace_kinds : string list;
      (** Constructor names of [Bamboo_obs.Trace.kind], parsed from
          [lib/obs/trace.mli] when it is among the linted sources. *)
  metric_names : (string * int) list;
      (** Literal metric names at [Registry.counter/gauge/histogram]
          registration sites across the linted lib/ sources, with how
          many times each name occurs. *)
  fields : field_info list;
      (** Record-field metadata across every linted .ml source. *)
}

type rule = {
  id : string;
  severity : severity;
  summary : string;  (** One line for [--rules] and the README table. *)
  protects : string;  (** The determinism claim the rule defends. *)
  scope : string list -> bool;  (** Applied to the path's segments. *)
  on_expr : (rule_ctx -> Parsetree.expression -> unit) option;
  on_structure_item : (rule_ctx -> Parsetree.structure_item -> unit) option;
  on_typ : (rule_ctx -> Parsetree.core_type -> unit) option;
  on_file : (rule_ctx -> Parsetree.structure -> unit) option;
      (** Whole-file hook for dataflow passes that need every function
          of an implementation at once; never called for .mli files. *)
}

(* Fallback when lib/obs/trace.mli is not among the linted sources (for
   instance when linting a single file); kept in sync by the fixture in
   test_lint.ml that compares it against the parsed list. *)
let default_trace_kinds =
  [
    "Proposal_sent";
    "Proposal_received";
    "Vote_sent";
    "Vote_received";
    "Qc_formed";
    "Timeout_fired";
    "Timeout_received";
    "View_change";
    "Commit";
    "Fork_prune";
    "Tx_enqueue";
    "Tx_dequeue";
    "Service";
    "Gauge";
    "Fault_inject";
    "Fault_heal";
  ]

(* --- metric-registration recognition --- *)

(* A call whose head identifier flattens to [... Registry.counter],
   [... Registry.gauge] or [... Registry.histogram] and that passes a
   string literal as its unlabelled name argument. Instrumented modules
   alias [module Registry = Bamboo_metrics.Registry] precisely so these
   sites stay recognizable; calls forwarding a computed name (e.g. the
   probe's gauge registration) are intentionally not matched. *)
let metric_registration (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
      match List.rev (Longident.flatten txt) with
      | fn :: "Registry" :: _
        when String.equal fn "counter" || String.equal fn "gauge"
             || String.equal fn "histogram" ->
          List.find_map
            (fun (label, (arg : Parsetree.expression)) ->
              match (label, arg.Parsetree.pexp_desc) with
              | Asttypes.Nolabel, Pexp_constant (Pconst_string (name, _, _))
                ->
                  Some (name, arg.Parsetree.pexp_loc)
              | _ -> None)
            args
      | _ -> None)
  | _ -> None

(* --- parsing --- *)

type ast = Impl of Parsetree.structure | Intf of Parsetree.signature

let pos_pair (p : Lexing.position) = (p.pos_lnum, p.pos_cnum - p.pos_bol)

let parse ~path source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  try
    if Filename.check_suffix path ".mli" then Ok (Intf (Parse.interface lexbuf))
    else Ok (Impl (Parse.implementation lexbuf))
  with exn ->
    let line, col, message =
      match Location.error_of_exn exn with
      | Some (`Ok report) ->
          let msg = report.Location.main in
          let line, col = pos_pair msg.Location.loc.Location.loc_start in
          (line, col, Format.asprintf "%t" msg.Location.txt)
      | Some `Already_displayed | None -> (1, 0, Printexc.to_string exn)
    in
    Error { file = path; line; col; rule = "parse-error"; severity = Error; message }

(* --- raw findings --- *)

let raw_findings ~rules ~trace_kinds ~metric_names ~fields ~path ~segs ast =
  let out = ref [] in
  let active = List.filter (fun r -> r.scope segs) rules in
  let hooks select =
    List.filter_map
      (fun r ->
        match select r with
        | None -> None
        | Some check ->
            let ctx =
              {
                add =
                  (fun (loc : Location.t) message ->
                    let line, col = pos_pair loc.Location.loc_start in
                    out :=
                      {
                        file = path;
                        line;
                        col;
                        rule = r.id;
                        severity = r.severity;
                        message;
                      }
                      :: !out);
                file = path;
                trace_kinds;
                metric_names;
                fields;
              }
            in
            Some (check ctx))
      active
  in
  let expr_hooks = hooks (fun r -> r.on_expr) in
  let str_hooks = hooks (fun r -> r.on_structure_item) in
  let typ_hooks = hooks (fun r -> r.on_typ) in
  let file_hooks = hooks (fun r -> r.on_file) in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      Ast_iterator.expr =
        (fun it e ->
          List.iter (fun f -> f e) expr_hooks;
          default.Ast_iterator.expr it e);
      structure_item =
        (fun it si ->
          List.iter (fun f -> f si) str_hooks;
          default.Ast_iterator.structure_item it si);
      typ =
        (fun it t ->
          List.iter (fun f -> f t) typ_hooks;
          default.Ast_iterator.typ it t);
    }
  in
  (match ast with
  | Impl str ->
      List.iter (fun f -> f str) file_hooks;
      it.Ast_iterator.structure it str
  | Intf sg -> it.Ast_iterator.signature it sg);
  List.rev !out

(* --- suppressions --- *)

type suppression = {
  sup_rule : string;
  sup_line : int;
  sup_col : int;  (* where to report orphans *)
  sup_from : int * int;
  sup_to : int * int;  (* inclusive span the suppression covers *)
  mutable sup_used : bool;
}

let allow_name = "lint.allow"

(* [Some (Ok id)] for a well-formed [@lint.allow "id"], [Some (Error _)]
   for a malformed payload, [None] for unrelated attributes. *)
let allow_payload (attr : Parsetree.attribute) =
  if not (String.equal attr.Parsetree.attr_name.txt allow_name) then None
  else
    match attr.Parsetree.attr_payload with
    | Parsetree.PStr
        [
          {
            pstr_desc =
              Pstr_eval
                ( { pexp_desc = Pexp_constant (Pconst_string (id, _, _)); _ },
                  _ );
            _;
          };
        ] ->
        Some (Ok id)
    | _ -> Some (Error "[@lint.allow] expects a single string-literal rule id")

let whole_file_span = ((1, 0), (max_int, max_int))

let collect_suppressions ~path ast =
  let sups = ref [] and errs = ref [] in
  let record ~span (attr : Parsetree.attribute) =
    match allow_payload attr with
    | None -> ()
    | Some (Error message) ->
        let line, col = pos_pair attr.Parsetree.attr_loc.Location.loc_start in
        errs :=
          {
            file = path;
            line;
            col;
            rule = "orphan-suppression";
            severity = Error;
            message;
          }
          :: !errs
    | Some (Ok id) ->
        let line, col = pos_pair attr.Parsetree.attr_loc.Location.loc_start in
        let sup_from, sup_to = span in
        sups :=
          {
            sup_rule = id;
            sup_line = line;
            sup_col = col;
            sup_from;
            sup_to;
            sup_used = false;
          }
          :: !sups
  in
  let span_of (loc : Location.t) =
    (pos_pair loc.Location.loc_start, pos_pair loc.Location.loc_end)
  in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      Ast_iterator.expr =
        (fun it e ->
          List.iter
            (record ~span:(span_of e.Parsetree.pexp_loc))
            e.Parsetree.pexp_attributes;
          default.Ast_iterator.expr it e);
      value_binding =
        (fun it vb ->
          List.iter
            (record ~span:(span_of vb.Parsetree.pvb_loc))
            vb.Parsetree.pvb_attributes;
          default.Ast_iterator.value_binding it vb);
      structure_item =
        (fun it si ->
          (match si.Parsetree.pstr_desc with
          | Pstr_attribute attr -> record ~span:whole_file_span attr
          | Pstr_eval (_, attrs) ->
              List.iter (record ~span:(span_of si.Parsetree.pstr_loc)) attrs
          | _ -> ());
          default.Ast_iterator.structure_item it si);
      signature_item =
        (fun it si ->
          (match si.Parsetree.psig_desc with
          | Psig_attribute attr -> record ~span:whole_file_span attr
          | _ -> ());
          default.Ast_iterator.signature_item it si);
    }
  in
  (match ast with
  | Impl str -> it.Ast_iterator.structure it str
  | Intf sg -> it.Ast_iterator.signature it sg);
  (List.rev !sups, List.rev !errs)

let within (l, c) (fl, fc) (tl, tc) =
  (l > fl || (l = fl && c >= fc)) && (l < tl || (l = tl && c <= tc))

(* --- per-file pipeline --- *)

let lint_file ~rules ~trace_kinds ~metric_names ~fields path ast =
  let segs = segments path in
  let raw =
    raw_findings ~rules ~trace_kinds ~metric_names ~fields ~path ~segs ast
  in
  let sups, malformed = collect_suppressions ~path ast in
  let known = List.map (fun r -> r.id) rules in
  let sups, unknown =
    List.partition (fun s -> List.mem s.sup_rule known) sups
  in
  let unknown_findings =
    List.map
      (fun s ->
        {
          file = path;
          line = s.sup_line;
          col = s.sup_col;
          rule = "orphan-suppression";
          severity = Error;
          message =
            Printf.sprintf "unknown rule id %S in [@lint.allow]" s.sup_rule;
        })
      unknown
  in
  let kept =
    List.filter
      (fun f ->
        match
          List.find_opt
            (fun s ->
              String.equal s.sup_rule f.rule
              && within (f.line, f.col) s.sup_from s.sup_to)
            sups
        with
        | Some s ->
            s.sup_used <- true;
            false
        | None -> true)
      raw
  in
  let orphans =
    List.filter_map
      (fun s ->
        if s.sup_used then None
        else
          Some
            {
              file = path;
              line = s.sup_line;
              col = s.sup_col;
              rule = "orphan-suppression";
              severity = Error;
              message =
                Printf.sprintf
                  "suppression of %S matched no finding; remove it (or fix \
                   the rule id)"
                  s.sup_rule;
            })
      sups
  in
  kept @ malformed @ unknown_findings @ orphans

(* --- trace-kind discovery --- *)

let rec ends_with suffix segs =
  let ls = List.length suffix and lg = List.length segs in
  if lg < ls then false
  else if lg = ls then List.for_all2 String.equal suffix segs
  else match segs with [] -> false | _ :: rest -> ends_with suffix rest

let kind_constructors (d : Parsetree.type_declaration) =
  if String.equal d.ptype_name.txt "kind" then
    match d.ptype_kind with
    | Ptype_variant ctors ->
        Some (List.map (fun (c : Parsetree.constructor_declaration) -> c.pcd_name.txt) ctors)
    | _ -> None
  else None

let trace_kinds_of parsed =
  List.find_map
    (fun (path, ast) ->
      if not (ends_with [ "obs"; "trace.mli" ] (segments path)) then None
      else
        match ast with
        | Intf sg ->
            List.find_map
              (fun (item : Parsetree.signature_item) ->
                match item.psig_desc with
                | Psig_type (_, decls) -> List.find_map kind_constructors decls
                | _ -> None)
              sg
        | Impl _ -> None)
    parsed

(* --- metric-name discovery --- *)

(* Counts every literal metric name registered across the lib/ sources
   (the library code owns the metric namespace; bench and test files may
   re-register names for their own registries). The counts let the
   exhaustive-metric-names rule flag duplicate registrations at their
   own sites while each file is linted independently. *)
let metric_names_of parsed =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (path, ast) ->
      match ast with
      | Intf _ -> ()
      | Impl str ->
          if under [ "lib" ] (segments path) then
            let default = Ast_iterator.default_iterator in
            let it =
              {
                default with
                Ast_iterator.expr =
                  (fun it e ->
                    (match metric_registration e with
                    | Some (name, _) ->
                        Hashtbl.replace tbl name
                          (1 + Option.value (Hashtbl.find_opt tbl name) ~default:0)
                    | None -> ());
                    default.Ast_iterator.expr it e);
              }
            in
            it.Ast_iterator.structure it str)
    parsed;
  (* bucket order is washed out by the sort *)
  (Hashtbl.fold [@lint.allow "no-order-leak"])
    (fun name count acc -> (name, count) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- record-field discovery --- *)

(* [[@guarded_by "m"]] on a mutable record field names the mutex (by its
   last path segment: [Mutex.lock t.m] locks ["m"]) that must be held
   around every access. Parsed here so the concurrency rules in
   {!Lint_conc} can consult annotations across file boundaries. *)
let guard_payload (attr : Parsetree.attribute) =
  if not (String.equal attr.Parsetree.attr_name.txt "guarded_by") then None
  else
    match attr.Parsetree.attr_payload with
    | Parsetree.PStr
        [
          {
            pstr_desc =
              Pstr_eval
                ( { pexp_desc = Pexp_constant (Pconst_string (m, _, _)); _ },
                  _ );
            _;
          };
        ] ->
        Some m
    | _ -> None

(* Rule ids from [[@lint.allow "id"]] attributes on a record label.
   Unlike expression/binding suppressions these are declarative
   exemptions consumed by the field table (no orphan tracking): they
   state an invariant ("single-consumer field", "set once before
   spawn") rather than silence one specific finding. *)
let label_allows attrs =
  List.filter_map
    (fun attr ->
      match allow_payload attr with Some (Ok id) -> Some id | _ -> None)
    attrs

let container_module m =
  List.mem m [ "Hashtbl"; "Buffer"; "Queue"; "Stack"; "Heap"; "Deque"; "Tbl" ]
  || String.ends_with ~suffix:"_tbl" m
  || String.ends_with ~suffix:"_Tbl" m

let rec type_path (t : Parsetree.core_type) =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, _) -> Longident.flatten txt
  | Ptyp_poly (_, t) | Ptyp_alias (t, _) -> type_path t
  | _ -> []

let classify_field_type t =
  match List.rev (type_path t) with
  | "t" :: "Atomic" :: _ -> (true, false, false)
  | "t" :: "Mutex" :: _ -> (false, false, true)
  | "t" :: m :: _ when container_module m -> (false, true, false)
  | ("array" | "bytes") :: _ -> (false, true, false)
  | _ -> (false, false, false)

let fields_of parsed =
  let out = ref [] in
  List.iter
    (fun (path, ast) ->
      match ast with
      | Intf _ -> ()
      | Impl str ->
          let default = Ast_iterator.default_iterator in
          let it =
            {
              default with
              Ast_iterator.type_declaration =
                (fun it (d : Parsetree.type_declaration) ->
                  (match d.ptype_kind with
                  | Ptype_record labels ->
                      List.iter
                        (fun (l : Parsetree.label_declaration) ->
                          let atomic, container, mutex =
                            classify_field_type l.pld_type
                          in
                          out :=
                            {
                              fi_file = path;
                              fi_type = d.ptype_name.txt;
                              fi_name = l.pld_name.txt;
                              fi_loc = l.pld_loc;
                              fi_mutable = l.pld_mutable = Asttypes.Mutable;
                              fi_atomic = atomic;
                              fi_container = container;
                              fi_mutex = mutex;
                              fi_guard =
                                List.find_map guard_payload l.pld_attributes;
                              fi_allowed = label_allows l.pld_attributes;
                            }
                            :: !out)
                        labels
                  | _ -> ());
                  default.Ast_iterator.type_declaration it d);
            }
          in
          it.Ast_iterator.structure it str)
    parsed;
  List.rev !out

(* --- entry points --- *)

let compare_findings (a : finding) (b : finding) =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let lint_sources ?(only = fun _ -> true) ~rules sources =
  let parsed, parse_errors =
    List.fold_left
      (fun (parsed, errs) (path, contents) ->
        match parse ~path contents with
        | Ok ast -> ((path, ast) :: parsed, errs)
        | Error f -> (parsed, f :: errs))
      ([], []) sources
  in
  let parsed = List.rev parsed and parse_errors = List.rev parse_errors in
  let trace_kinds =
    Option.value (trace_kinds_of parsed) ~default:default_trace_kinds
  in
  let metric_names = metric_names_of parsed in
  (* Pre-passes above see every source so cross-file tables stay whole;
     [only] restricts which files are actually linted and reported
     (the [--since REF] incremental mode). *)
  let fields = fields_of parsed in
  let parse_errors =
    List.filter (fun (f : finding) -> only f.file) parse_errors
  in
  let findings =
    List.concat_map
      (fun (path, ast) ->
        if only path then
          lint_file ~rules ~trace_kinds ~metric_names ~fields path ast
        else [])
      parsed
  in
  List.sort compare_findings (parse_errors @ findings)

let skip_dir name =
  String.equal name "_build" || String.equal name ".git"
  || String.equal name "_opam"

let collect_files paths =
  let files = ref [] in
  let rec go path : (unit, string) result =
    match Sys.is_directory path with
    | exception Sys_error e -> Error e
    | true ->
        let entries =
          List.sort String.compare (Array.to_list (Sys.readdir path))
        in
        List.fold_left
          (fun (r : (unit, string) result) name ->
            match r with
            | Error _ -> r
            | Ok () ->
                if skip_dir name then Ok ()
                else go (Filename.concat path name))
          (Ok ()) entries
    | false ->
        if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
        then files := path :: !files;
        Ok ()
  in
  let rec all : string list -> (string list, string) result = function
    | [] -> Ok (List.sort String.compare !files)
    | p :: rest -> ( match go p with Ok () -> all rest | Error e -> Error e)
  in
  all paths

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_paths ?(only = fun _ -> true) ~rules paths
    : (int * finding list, string) result =
  match collect_files paths with
  | Error e -> Error e
  | Ok files -> (
      let rec read_all acc : string list -> ((string * string) list, string) result
          = function
        | [] -> Ok (List.rev acc)
        | f :: rest -> (
            match read_file f with
            | contents -> read_all ((f, contents) :: acc) rest
            | exception Sys_error e -> Error e)
      in
      match read_all [] files with
      | Error e -> Error e
      | Ok sources ->
          Ok
            ( List.length (List.filter only files),
              lint_sources ~only ~rules sources ))

(* --- reporting --- *)

let errors (findings : finding list) =
  List.length (List.filter (fun (f : finding) -> f.severity = Error) findings)

let warnings (findings : finding list) =
  List.length (List.filter (fun (f : finding) -> f.severity = Warn) findings)

let exit_code findings = if errors findings > 0 then 1 else 0

let render (f : finding) =
  Printf.sprintf "%s:%d:%d [%s] %s: %s" f.file f.line f.col f.rule
    (severity_name f.severity) f.message

module Json = Bamboo_util.Json

let finding_to_json (f : finding) =
  Json.Obj
    [
      ("file", Json.String f.file);
      ("line", Json.Int f.line);
      ("col", Json.Int f.col);
      ("rule", Json.String f.rule);
      ("severity", Json.String (severity_name f.severity));
      ("message", Json.String f.message);
    ]

let report_to_json ~files findings =
  Json.Obj
    [
      ("files", Json.Int files);
      ("errors", Json.Int (errors findings));
      ("warnings", Json.Int (warnings findings));
      ("findings", Json.List (List.map finding_to_json findings));
    ]
