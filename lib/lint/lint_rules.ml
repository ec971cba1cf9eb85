(* The rule registry: every determinism and domain-safety rule this
   repository enforces, with the claim each one protects. The engine
   ({!Lint_engine}) walks every parsetree once per hook kind and calls
   the applicable rules; rules never see files outside their scope.

   All checks are purely syntactic (parsetree-level, no typing), so each
   one targets patterns that are unambiguous at the AST: a bare
   [compare], a literal tuple used as a Hashtbl key, a top-level [ref].
   Anything the rules cannot see (e.g. a polymorphic compare reached
   through a functor) is out of scope by design — the goal is to make
   the common regressions impossible, not to re-implement the typer. *)

open Parsetree
module E = Lint_engine

let sprintf = Printf.sprintf

(* --- scopes --- *)

let in_lib segs = E.under [ "lib" ] segs

(* Modules on the simulator's hot path, where a polymorphic compare or
   hash is both a cost and a determinism hazard. This is the PR 1
   [Float.compare] / PR 3 monomorphic-heap class of bug. *)
let hot_dirs =
  [
    [ "lib"; "sim" ];
    [ "lib"; "core" ];
    [ "lib"; "forest" ];
    [ "lib"; "quorum" ];
    [ "lib"; "util" ];
    [ "lib"; "mempool" ];
    [ "lib"; "types" ];
  ]

let in_hot segs = E.under_any hot_dirs segs

(* Everything reachable from [Pool.map] worker domains. lib/network is
   excluded: the threaded deployment transports run on system threads
   behind mutexes and are never entered from the domain pool. *)
let in_domain_scope segs = in_lib segs && not (E.under [ "lib"; "network" ] segs)

let in_check segs = E.under [ "lib"; "check" ] segs

(* --- helpers --- *)

let flatten lid = Longident.flatten lid

let rec strip e =
  match e.pexp_desc with Pexp_constraint (e, _) -> strip e | _ -> e

let positional args =
  List.filter_map
    (function Asttypes.Nolabel, a -> Some a | _ -> None)
    args

(* --- rule 1: no-ambient-nondeterminism --- *)

let check_ambient ctx e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match flatten txt with
      | [ "Random"; fn ] ->
          ctx.E.add e.pexp_loc
            (sprintf
               "Random.%s draws from the ambient global RNG; use a per-stream \
                Rng.t (or an explicit Random.State.t) owned by the scenario"
               fn)
      | [ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ] ->
          ctx.E.add e.pexp_loc
            "wall-clock read in lib/; use virtual time (Sim.now) so runs are \
             reproducible"
      | _ -> ())
  | _ -> ()

let no_ambient_nondeterminism =
  {
    E.id = "no-ambient-nondeterminism";
    severity = E.Error;
    summary =
      "ban global Random.*, Unix.gettimeofday/time and Sys.time in lib/ \
       (virtual sim time and per-stream RNGs only)";
    protects =
      "seed-reproducible runs: the same (config, seed) always produces the \
       same trace";
    scope = in_lib;
    on_expr = Some check_ambient;
    on_structure_item = None;
    on_typ = None;
    on_file = None;
  }

(* --- rule 2: no-polymorphic-compare --- *)

let compare_idents =
  [ [ "compare" ]; [ "Stdlib"; "compare" ]; [ "Pervasives"; "compare" ] ]

let hash_idents =
  [
    [ "Hashtbl"; "hash" ];
    [ "Stdlib"; "Hashtbl"; "hash" ];
    [ "Hashtbl"; "seeded_hash" ];
  ]

let cmp_ops = [ "="; "<>"; "<"; ">"; "<="; ">=" ]

let hashtbl_key_fns = [ "add"; "replace"; "find"; "find_opt"; "mem"; "remove" ]

(* A syntactically structured (boxed, multi-word) value: comparing or
   hashing one goes through the generic runtime walk. *)
let structured e =
  match (strip e).pexp_desc with
  | Pexp_tuple _ | Pexp_record _
  | Pexp_construct (_, Some _)
  | Pexp_variant (_, Some _)
  | Pexp_array _ ->
      true
  | _ -> false

let check_poly ctx e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } when List.mem (flatten txt) compare_idents ->
      ctx.E.add e.pexp_loc
        "polymorphic compare walks the generic runtime representation; use \
         Int.compare / Float.compare / String.compare or a dedicated \
         comparator"
  | Pexp_ident { txt; _ } when List.mem (flatten txt) hash_idents ->
      ctx.E.add e.pexp_loc
        "polymorphic Hashtbl.hash on a structured value is a determinism and \
         performance hazard; hash a canonical immediate (or use \
         Hashtbl.Make with a monomorphic hash)"
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
      let pos = positional args in
      match flatten txt with
      | [ op ] when List.mem op cmp_ops && List.exists structured pos ->
          ctx.E.add e.pexp_loc
            (sprintf
               "polymorphic (%s) applied to a tuple/record/constructor \
                literal compares structurally at runtime; compare the \
                fields explicitly"
               op)
      | [ "Hashtbl"; fn ] when List.mem fn hashtbl_key_fns -> (
          match pos with
          | _tbl :: key :: _ when structured key ->
              ctx.E.add e.pexp_loc
                (sprintf
                   "Hashtbl.%s with a composite literal key hashes a boxed \
                    value with the polymorphic hash; pack the key into an \
                    immediate or use Hashtbl.Make with a monomorphic \
                    hash/equal"
                   fn)
          | _ -> ())
      | _ -> ())
  | _ -> ()

let check_poly_typ ctx t =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, key :: _)
    when (match flatten txt with
         | [ "Hashtbl"; "t" ] | [ "Stdlib"; "Hashtbl"; "t" ] -> true
         | _ -> false) -> (
      match key.ptyp_desc with
      | Ptyp_tuple _ ->
          ctx.E.add t.ptyp_loc
            "tuple-keyed Hashtbl.t hashes and compares boxed keys with the \
             polymorphic primitives on every operation; pack the key into \
             an immediate or use Hashtbl.Make with a monomorphic key module"
      | _ -> ())
  | _ -> ()

let no_polymorphic_compare =
  {
    E.id = "no-polymorphic-compare";
    severity = E.Error;
    summary =
      "flag bare compare, Hashtbl.hash, structural (=)/(<)/... on composite \
       literals and composite Hashtbl keys in hot-path modules";
    protects =
      "hot-path cost and representation-independence: results must not \
       depend on the generic compare's walk over boxed values";
    scope = in_hot;
    on_expr = Some check_poly;
    on_structure_item = None;
    on_typ = Some check_poly_typ;
    on_file = None;
  }

(* --- rule 2b (warn): no-poly-minmax --- *)

let minmax_idents = [ [ "min" ]; [ "max" ]; [ "Stdlib"; "min" ]; [ "Stdlib"; "max" ] ]

let is_float_lit e =
  match (strip e).pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | _ -> false

let check_minmax ctx e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
    when List.mem (flatten txt) minmax_idents
         && List.exists is_float_lit (positional args) ->
      ctx.E.add e.pexp_loc
        "polymorphic min/max on floats funnels through the generic compare \
         (it is not specialized as a function call); use Float.min/Float.max"
  | _ -> ()

let no_poly_minmax =
  {
    E.id = "no-poly-minmax";
    severity = E.Warn;
    summary =
      "flag polymorphic min/max applied to float literals in hot-path \
       modules (use Float.min/Float.max)";
    protects = "hot-path cost: generic compare per call on the float path";
    scope = in_hot;
    on_expr = Some check_minmax;
    on_structure_item = None;
    on_typ = None;
    on_file = None;
  }

(* --- rule 3: no-order-leak --- *)

let order_fns = [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

let hashtbl_module m =
  String.equal m "Hashtbl" || String.equal m "Tbl"
  || String.ends_with ~suffix:"_tbl" m
  || String.ends_with ~suffix:"_Tbl" m

let check_order ctx e =
  match e.pexp_desc with
  | Pexp_ident { txt; loc = _ } -> (
      match List.rev (flatten txt) with
      | fn :: m :: _ when hashtbl_module m && List.mem fn order_fns ->
          ctx.E.add e.pexp_loc
            (sprintf
               "%s.%s visits bindings in unspecified bucket order; sort \
                first (Tbl.sorted_bindings) before the result can reach a \
                trace sink, ledger or rendered row — or suppress with a \
                justification if the accumulation is order-insensitive"
               m fn)
      | _ -> ())
  | _ -> ()

let no_order_leak =
  {
    E.id = "no-order-leak";
    severity = E.Error;
    summary =
      "flag Hashtbl.iter/fold/to_seq (and any *_tbl module's) in lib/: \
       bucket order must never reach output";
    protects =
      "byte-identical output at any --jobs value: no rendered row, trace \
       event or ledger may depend on hash-bucket layout";
    scope = in_lib;
    on_expr = Some check_order;
    on_structure_item = None;
    on_typ = None;
    on_file = None;
  }

(* --- rule 4: domain-safety --- *)

let mutable_creator e =
  let rec go e =
    match e.pexp_desc with
    | Pexp_constraint (e, _) -> go e
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
        match flatten txt with
        | [ "ref" ] | [ "Stdlib"; "ref" ] -> Some "a ref cell"
        | [ "Hashtbl"; "create" ] -> Some "a Hashtbl"
        | [ "Buffer"; "create" ] -> Some "a Buffer"
        | [ "Queue"; "create" ] -> Some "a Queue"
        | [ "Stack"; "create" ] -> Some "a Stack"
        | [ "Array"; ("make" | "init" | "create_float") ] ->
            Some "a mutable array"
        | [ "Bytes"; ("create" | "make") ] -> Some "mutable bytes"
        | _ -> None)
    | Pexp_tuple es -> List.find_map go es
    | _ -> None
  in
  go e

let check_domain ctx si =
  match si.pstr_desc with
  | Pstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          match mutable_creator vb.pvb_expr with
          | Some what ->
              ctx.E.add vb.pvb_expr.pexp_loc
                (sprintf
                   "top-level binding creates %s shared by every domain; \
                    Pool workers may race on it — make it per-run state, \
                    use Atomic, or suppress with a justification that it is \
                    only touched before workers start"
                   what)
          | None -> ())
        vbs
  | _ -> ()

let domain_safety =
  {
    E.id = "domain-safety";
    severity = E.Error;
    summary =
      "flag top-level refs/Hashtbls/Buffers/arrays in modules reachable \
       from Pool.map worker domains";
    protects =
      "data-race freedom of the domain-parallel experiment driver \
       (OCaml 5 domains share the heap; top-level state is shared state)";
    scope = in_domain_scope;
    on_expr = None;
    on_structure_item = Some check_domain;
    on_typ = None;
    on_file = None;
  }

(* --- rule 5: exhaustive-trace-match --- *)

let rec pat_ctors acc p =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, arg) -> (
      let acc =
        match List.rev (flatten txt) with c :: _ -> c :: acc | [] -> acc
      in
      match arg with Some (_, p) -> pat_ctors acc p | None -> acc)
  | Ppat_or (a, b) -> pat_ctors (pat_ctors acc a) b
  | Ppat_alias (p, _)
  | Ppat_constraint (p, _)
  | Ppat_exception p
  | Ppat_open (_, p)
  | Ppat_lazy p ->
      pat_ctors acc p
  | Ppat_tuple ps | Ppat_array ps -> List.fold_left pat_ctors acc ps
  | Ppat_record (fields, _) ->
      List.fold_left (fun acc (_, p) -> pat_ctors acc p) acc fields
  | Ppat_variant (_, Some p) -> pat_ctors acc p
  | _ -> acc

let rec catch_all p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> catch_all p
  | Ppat_or (a, b) -> catch_all a || catch_all b
  | _ -> false

let check_trace_match ctx e =
  match e.pexp_desc with
  | Pexp_match (_, cases) | Pexp_function cases ->
      let ctors =
        List.concat_map (fun c -> pat_ctors [] c.pc_lhs) cases
      in
      if List.exists (fun c -> List.mem c ctx.E.trace_kinds) ctors then
        List.iter
          (fun c ->
            if Option.is_none c.pc_guard && catch_all c.pc_lhs then
              ctx.E.add c.pc_lhs.ppat_loc
                "catch-all branch in a match over Trace.kind silently \
                 ignores newly added event kinds; enumerate the kinds this \
                 monitor deliberately skips")
          cases
  | _ -> ()

let exhaustive_trace_match =
  {
    E.id = "exhaustive-trace-match";
    severity = E.Error;
    summary =
      "forbid catch-all _ branches on Trace event-kind matches inside \
       lib/check monitors";
    protects =
      "oracle completeness: a new trace kind must be classified by every \
       invariant monitor, not silently dropped";
    scope = in_check;
    on_expr = Some check_trace_match;
    on_structure_item = None;
    on_typ = None;
    on_file = None;
  }

(* --- rule 6: exhaustive-metric-names --- *)

let snake_case name =
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
       name

let check_metric_names ctx e =
  match E.metric_registration e with
  | None -> ()
  | Some (name, loc) ->
      if not (snake_case name) then
        ctx.E.add loc
          (sprintf
             "metric name %S is not snake_case ([a-z] then [a-z0-9_]); the \
              exporters and the bench compare gate key on exact names"
             name);
      (match List.assoc_opt name ctx.E.metric_names with
      | Some count when count >= 2 ->
          ctx.E.add loc
            (sprintf
               "metric name %S is registered at %d sites in lib/; a second \
                registration silently merges into the first handle's cells \
                — rename one, or share one registration"
               name count)
      | Some _ | None -> ())

let exhaustive_metric_names =
  {
    E.id = "exhaustive-metric-names";
    severity = E.Error;
    summary =
      "require every literal metric name registered in lib/ to be \
       snake_case and registered at exactly one site";
    protects =
      "metric-namespace integrity: exporters, dashboards and the bench \
       regression gate address metrics by exact name";
    scope = in_lib;
    on_expr = Some check_metric_names;
    on_structure_item = None;
    on_typ = None;
    on_file = None;
  }

(* --- rules 7-10: the concurrency pass (Lint_conc) --- *)

(* Four rule ids over one shared per-file dataflow analysis; the
   [on_file] hooks pull from a memoized walk (see {!Lint_conc}). The
   pass applies everywhere the linter looks — lib/, bin/ and examples/
   all contain threads or domain pools. *)

let conc_rule ~id ~summary ~protects =
  {
    E.id;
    severity = E.Error;
    summary;
    protects;
    scope = (fun _ -> true);
    on_expr = None;
    on_structure_item = None;
    on_typ = None;
    on_file = Some (fun ctx str -> Lint_conc.findings_for ~rule:id ctx str);
  }

let guarded_by =
  conc_rule ~id:"guarded-by"
    ~summary:
      "lock-set dataflow: fields/refs annotated [@guarded_by \"m\"] may \
       only be touched with mutex m held (per-function summaries discharge \
       helpers called under the lock); records carrying a Mutex.t must \
       annotate every mutable field"
    ~protects:
      "the threaded plane's locking discipline: every shared mutable field \
       names the mutex that serializes it, and the checker proves the name \
       is honored"

let domain_escape =
  conc_rule ~id:"domain-escape"
    ~summary:
      "closures/functions passed to Domain.spawn, Thread.create, \
       Pool.map/run or Http.start must not touch unguarded mutable state \
       (captured refs, unannotated mutable fields, \
       Hashtbl/Buffer/Queue/array/Rng mutation) without a lock"
    ~protects:
      "data-race freedom at thread boundaries: state crossing a spawn is \
       Atomic, lock-guarded, thread-private, or carries a written-down \
       justification"

let atomic_rmw =
  conc_rule ~id:"atomic-rmw"
    ~summary:
      "flag Atomic.get followed by Atomic.set of the same path in one \
       function with no lock held (use fetch_and_add/compare_and_set)"
    ~protects:
      "lost-update freedom on lock-free counters and cursors (the Ring \
       single-consumer protocol is the one audited exception)"

let condvar_recheck =
  conc_rule ~id:"condvar-recheck"
    ~summary:
      "require Condition.wait to sit inside a predicate-rechecking loop \
       (while body or let-rec function)"
    ~protects:
      "lost-wakeup freedom: the parked-flag doorbell protocol Wakeup \
       documents only works when waiters re-test their predicate"

(* --- registry --- *)

let all =
  [
    no_ambient_nondeterminism;
    no_polymorphic_compare;
    no_poly_minmax;
    no_order_leak;
    domain_safety;
    exhaustive_trace_match;
    exhaustive_metric_names;
    guarded_by;
    domain_escape;
    atomic_rmw;
    condvar_recheck;
  ]
