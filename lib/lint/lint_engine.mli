(** AST-level linter infrastructure.

    Parses .ml/.mli sources with the compiler's own parser
    (compiler-libs) and runs a registry of syntactic rules over the
    parsetrees. The rules themselves live in {!Lint_rules}; this module
    owns parsing, scoping, suppression handling, reporting and the JSON
    encoding of reports.

    Suppression syntax (all payloads are a single string-literal rule
    id; a suppression that matches no finding is an error):

    - [let[@lint.allow "rule-id"] x = ...] — covers the binding,
    - [(expr [@lint.allow "rule-id"])] — covers the expression,
    - [[@@@lint.allow "rule-id"]] — floating, covers the whole file. *)

type severity = Error | Warn

val severity_name : severity -> string

type finding = {
  file : string;
  line : int;  (** 1-based. *)
  col : int;  (** 0-based character offset, like the compiler's output. *)
  rule : string;
  severity : severity;
  message : string;
}

(** {2 Path scoping}

    Rules scope themselves with predicates over the ['/']-separated
    segments of a file's path, so ["lib/sim/sim.ml"] and
    ["../lib/sim/sim.ml"] land in the same scope. *)

val segments : string -> string list

val under : string list -> string list -> bool
(** [under ["lib"; "sim"] segs] holds when the consecutive segment
    sequence [lib/sim] occurs anywhere in [segs]. *)

val under_any : string list list -> string list -> bool

(** {2 Rules} *)

(** Record-field metadata collected by a pre-pass over every linted .ml
    source, for the concurrency rules in {!Lint_conc}. *)
type field_info = {
  fi_file : string;  (** File declaring the record type. *)
  fi_type : string;  (** Record type name. *)
  fi_name : string;  (** Field name. *)
  fi_loc : Location.t;  (** Label declaration site. *)
  fi_mutable : bool;
  fi_atomic : bool;  (** Declared type is [Atomic.t]. *)
  fi_container : bool;
      (** Hashtbl/Buffer/Queue/Stack/Heap/array-like declared type. *)
  fi_mutex : bool;  (** Declared type is [Mutex.t]. *)
  fi_guard : string option;  (** [[@guarded_by "m"]] annotation. *)
  fi_allowed : string list;
      (** Rule ids from label-level [[@lint.allow "id"]] exemptions
          (declarative: no orphan tracking, unlike expression/binding
          suppressions). *)
}

type rule_ctx = {
  add : Location.t -> string -> unit;
  file : string;  (** Path of the file being linted. *)
  trace_kinds : string list;
      (** Constructor names of [Bamboo_obs.Trace.kind], parsed from
          [lib/obs/trace.mli] when it is among the linted sources, else
          a built-in fallback. *)
  metric_names : (string * int) list;
      (** Literal metric names at [Registry.counter/gauge/histogram]
          registration sites across the linted lib/ sources, with how
          many times each name occurs; collected by a pre-pass (or
          supplied via [?metric_names]). *)
  fields : field_info list;
      (** Record-field metadata across every linted .ml source,
          collected by a pre-pass. *)
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

val default_trace_kinds : string list

val guard_payload : Parsetree.attribute -> string option
(** [Some "m"] for a well-formed [[@guarded_by "m"]] attribute, [None]
    otherwise; shared with {!Lint_conc} for value-binding annotations. *)

val metric_registration :
  Parsetree.expression -> (string * Location.t) option
(** Recognizes a [Registry.counter]/[Registry.gauge]/[Registry.histogram]
    application (any module-path prefix ending in [Registry]) whose
    unlabelled name argument is a string literal, returning the literal
    and its location. Computed names are not matched. *)

(** {2 Running the linter} *)

val lint_sources :
  ?only:(string -> bool) ->
  rules:rule list ->
  (string * string) list ->
  finding list
(** [lint_sources ~rules [(path, contents); ...]] lints in-memory
    sources (used by the test fixtures). Findings are sorted by
    [(file, line, col, rule)]. Unparseable sources produce a
    [parse-error] finding instead of aborting. [?only] restricts which
    files are linted and reported; cross-file pre-passes (trace kinds,
    metric names, record fields) always see every source. *)

val collect_files : string list -> (string list, string) result
(** Expand files and directories (recursively, skipping [_build],
    [.git] and [_opam]) into a sorted list of .ml/.mli files. *)

val lint_paths :
  ?only:(string -> bool) ->
  rules:rule list ->
  string list ->
  (int * finding list, string) result
(** [lint_paths ~rules paths] is [Ok (files_scanned, findings)], or
    [Error msg] when a path cannot be read (a usage error: exit 2).
    With [?only], [files_scanned] counts only the files that passed the
    filter (pre-passes still parse the whole tree). *)

(** {2 Reporting} *)

val errors : finding list -> int
val warnings : finding list -> int

val exit_code : finding list -> int
(** 0 when no error-severity findings remain, 1 otherwise (warnings do
    not fail the run). *)

val render : finding -> string
(** [file:line:col [rule-id] severity: message]. *)

val finding_to_json : finding -> Bamboo_util.Json.t

val report_to_json : files:int -> finding list -> Bamboo_util.Json.t
