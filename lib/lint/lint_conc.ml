(* Concurrency analysis pass: lock discipline, thread escape, atomicity.

   Where {!Lint_rules} checks one expression at a time, this module runs
   a per-file dataflow analysis over whole implementations and feeds
   four rules:

   - [guarded-by]: a mutable record field or ref annotated
     [[@guarded_by "m"]] may only be touched while mutex [m] (named by
     the last path segment of the [Mutex.lock] argument) is held. A
     lock-set walk tracks [Mutex.lock]/[unlock]/[protect] through
     sequencing, with branch joins by intersection. Helpers called
     under a lock are handled by per-function summaries: a guarded
     access without the lock becomes a *requirement* of the enclosing
     function, discharged at call sites that hold the lock and
     propagated otherwise; requirements that survive to a function no
     in-file caller references are reported at the original access.
     A completeness check also demands that every mutable/container
     field of a record that carries a [Mutex.t] is either annotated,
     [Atomic.t]-typed, or exempted with a label-level
     [[@lint.allow "guarded-by"]].

   - [domain-escape]: closures and functions handed to [Domain.spawn],
     [Thread.create], [Pool.map]/[Pool.run] or [Http.start] run on
     another thread; any unguarded mutable state they touch (captured
     refs, unannotated mutable fields, Hashtbl / Buffer / Queue / array /
     Rng mutation) with no lock held is reported — unless the state is
     created inside the spawned body, [Atomic.t],
     [[@guarded_by]]-annotated, or suppressed.

   - [atomic-rmw]: [Atomic.get p] followed by [Atomic.set p] in the
     same function with no lock held at the set is a lost-update
     window; use [fetch_and_add]/[compare_and_set] (or keep the set
     under the mutex that serializes it).

   - [condvar-recheck]: [Condition.wait] must sit inside a
     predicate-rechecking loop (a [while] body or a [let rec]
     function), the lost-wakeup discipline [Wakeup] is built around.

   Everything here is syntactic (parsetree, no typing), so the analysis
   is deliberately name-based: fields are matched by field name against
   the cross-file table in {!Lint_engine.field_info} (same-file
   declarations take precedence), locks by the last segment of the
   mutex path. Closures stored in records and run later are analyzed
   with the lock set at their definition site; inter-file calls are
   opaque. The goal is the same as PR 5's rules: make the common race
   shapes impossible to land silently, not to re-implement a typer. *)

open Parsetree
module E = Lint_engine
module SS = Set.Make (String)
module SM = Map.Make (String)

let sprintf = Printf.sprintf

type finding = { cf_rule : string; cf_loc : Location.t; cf_msg : string }

(* --- function summaries --- *)

type req = { rq_lock : string; rq_loc : Location.t; rq_desc : string }
(* A guarded access performed without its lock: the enclosing function
   requires [rq_lock] from its callers. *)

type raw = { ra_loc : Location.t; ra_desc : string; ra_var : string option }
(* An access to unguarded, non-atomic, non-local mutable state with no
   lock held: harmless on the owning thread, reported if the function
   ends up running on a spawned one. [ra_var] names the variable for
   variable accesses (None for record fields), so a caller that owns the
   variable as [Local_mutable] can discharge it: a spawned function's
   own frame — including refs its inner helper closures capture — is
   thread-local. *)

type summary = { mutable sm_reqs : req list; mutable sm_raw : raw list }

let fresh_summary () = { sm_reqs = []; sm_raw = [] }

let add_req sum r =
  if
    not
      (List.exists
         (fun x -> String.equal x.rq_lock r.rq_lock && x.rq_loc = r.rq_loc)
         sum.sm_reqs)
  then sum.sm_reqs <- sum.sm_reqs @ [ r ]

let add_raw sum r =
  if not (List.exists (fun x -> x.ra_loc = r.ra_loc) sum.sm_raw) then
    sum.sm_raw <- sum.sm_raw @ [ r ]

(* --- binding kinds --- *)

type kind =
  | Plain  (* known binding with no concurrency relevance (params) *)
  | Local_mutable of string  (* ref/container created in this scope *)
  | Captured_mutable of string  (* same, but from an enclosing scope *)
  | Atomic_val
  | Guarded_ref of string  (* [let[@guarded_by "m"] r = ref ...] *)
  | Func of summary

let capture_env env =
  SM.map (function Local_mutable w -> Captured_mutable w | k -> k) env

(* --- per-file analysis state --- *)

type state = {
  st_file : string;
  st_local_fields : E.field_info list;
  st_all_fields : E.field_info list;
  st_funcs : (string, summary) Hashtbl.t;  (* top-level, by bare name *)
  st_called : (string, unit) Hashtbl.t;
  mutable st_report : bool;  (* final fixpoint round: emit findings *)
  mutable st_out : finding list;
}

(* Analysis context for one function body. *)
type wctx = {
  w_sum : summary;
  w_self : string option;  (* enclosing function name, for recursion *)
  w_got : (string, unit) Hashtbl.t;  (* Atomic.get paths seen so far *)
}

let emit st rule loc msg =
  if st.st_report then
    st.st_out <- { cf_rule = rule; cf_loc = loc; cf_msg = msg } :: st.st_out

(* --- small syntactic helpers --- *)

let flatten lid = Longident.flatten lid

let rec strip e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_newtype (_, e) ->
      strip e
  | _ -> e

let head_rev e =
  match (strip e).pexp_desc with
  | Pexp_ident { txt; _ } -> List.rev (flatten txt)
  | _ -> []

let positional args =
  List.filter_map
    (function Asttypes.Nolabel, a -> Some a | _ -> None)
    args

let rec path_str e =
  match (strip e).pexp_desc with
  | Pexp_ident { txt; _ } -> String.concat "." (flatten txt)
  | Pexp_field (b, { txt; _ }) -> (
      match List.rev (flatten txt) with
      | f :: _ -> path_str b ^ "." ^ f
      | [] -> path_str b)
  | Pexp_apply (f, args) -> (
      match (head_rev f, positional args) with
      | ("get" | "unsafe_get") :: ("Array" | "Bytes") :: _, base :: _ ->
          path_str base ^ ".(_)"
      | _ -> "_")
  | _ -> "_"

(* The lock name of a mutex expression: its last path segment, the
   convention [@guarded_by "m"] annotations name. *)
let lock_name e =
  match List.rev (String.split_on_char '.' (path_str e)) with
  | s :: _ -> s
  | [] -> "_"

let container_module m =
  List.mem m [ "Hashtbl"; "Buffer"; "Queue"; "Stack"; "Heap"; "Deque"; "Tbl" ]
  || String.ends_with ~suffix:"_tbl" m
  || String.ends_with ~suffix:"_Tbl" m

(* Functions of container-like modules that mutate their first
   positional argument. [Rng] is stateful on every draw. *)
let mutator m fn =
  match m with
  | "Hashtbl" | "Tbl" ->
      List.mem fn
        [ "add"; "replace"; "remove"; "reset"; "clear"; "filter_map_inplace" ]
  | "Buffer" ->
      String.starts_with ~prefix:"add_" fn
      || List.mem fn [ "clear"; "reset"; "truncate" ]
  | "Queue" -> List.mem fn [ "add"; "push"; "pop"; "take"; "clear"; "transfer" ]
  | "Stack" -> List.mem fn [ "push"; "pop"; "clear" ]
  | "Heap" | "Deque" ->
      List.mem fn
        [
          "add"; "insert"; "push"; "pop"; "take"; "push_front"; "push_back";
          "pop_front"; "pop_back"; "remove"; "clear";
        ]
  | "Rng" -> true
  | _ ->
      (String.ends_with ~suffix:"_tbl" m || String.ends_with ~suffix:"_Tbl" m)
      && List.mem fn
           [ "add"; "replace"; "remove"; "reset"; "clear"; "set"; "update" ]

(* [let x = <creator> ...] introducing thread-private mutable state. *)
let mutable_creation e =
  let go e =
    match (strip e).pexp_desc with
    | Pexp_apply (f, _) -> (
        match head_rev f with
        | "ref" :: _ -> Some "ref"
        | ("make" | "get" as fn) :: "Atomic" :: _ ->
            if String.equal fn "make" then Some "atomic" else None
        | ("create" | "make" | "init" | "create_float" | "copy" | "of_list") :: m :: _
          when container_module m
               || List.mem m [ "Array"; "Bytes"; "Rng"; "Random" ] ->
            Some (String.lowercase_ascii m)
        | _ -> None)
    | Pexp_array _ -> Some "array"
    | _ -> None
  in
  go e

let binding_guard (vb : value_binding) =
  List.find_map E.guard_payload vb.pvb_attributes

let rec pat_vars acc p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> txt :: acc
  | Ppat_alias (p, { txt; _ }) -> pat_vars (txt :: acc) p
  | Ppat_constraint (p, _) | Ppat_lazy p | Ppat_open (_, p) | Ppat_exception p
    ->
      pat_vars acc p
  | Ppat_tuple ps | Ppat_array ps -> List.fold_left pat_vars acc ps
  | Ppat_construct (_, Some (_, p)) | Ppat_variant (_, Some p) ->
      pat_vars acc p
  | Ppat_record (fs, _) ->
      List.fold_left (fun acc (_, p) -> pat_vars acc p) acc fs
  | Ppat_or (a, b) -> pat_vars (pat_vars acc a) b
  | _ -> acc

let add_pat env p = List.fold_left (fun env v -> SM.add v Plain env) env (pat_vars [] p)

let rec is_function e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_constraint (e, _) | Pexp_newtype (_, e) -> is_function e
  | _ -> false

(* --- field classification --- *)

(* Same-file declarations win; among candidates prefer an annotated or
   atomic one (the annotation is the author's statement of intent when
   two types share a field name). *)
let field_info st name =
  let pick l =
    match
      List.find_opt
        (fun (fi : E.field_info) ->
          String.equal fi.fi_name name
          && (fi.fi_guard <> None || fi.fi_atomic || fi.fi_allowed <> []))
        l
    with
    | Some fi -> Some fi
    | None ->
        List.find_opt (fun (fi : E.field_info) -> String.equal fi.fi_name name) l
  in
  match pick st.st_local_fields with
  | Some fi -> Some fi
  | None -> pick st.st_all_fields

let field_name lid =
  match List.rev (flatten lid) with f :: _ -> f | [] -> "_"

(* --- access checks --- *)

let check_field_access st w lockset loc desc name =
  match field_info st name with
  | None -> ()
  | Some fi ->
      if List.mem "guarded-by" fi.E.fi_allowed then ()
      else (
        match fi.E.fi_guard with
        | Some m ->
            if not (SS.mem m lockset) then
              add_req w.w_sum { rq_lock = m; rq_loc = loc; rq_desc = desc }
        | None ->
            if
              (fi.E.fi_mutable || fi.E.fi_container)
              && (not fi.E.fi_atomic)
              && (not fi.E.fi_mutex)
              && (not (List.mem "domain-escape" fi.E.fi_allowed))
              && SS.is_empty lockset
            then add_raw w.w_sum { ra_loc = loc; ra_desc = desc; ra_var = None })

let check_var_access st w env lockset loc name what =
  match SM.find_opt name env with
  | Some (Local_mutable _) | Some Atomic_val | Some (Func _) -> ()
  | Some (Guarded_ref m) ->
      if not (SS.mem m lockset) then
        add_req w.w_sum { rq_lock = m; rq_loc = loc; rq_desc = name }
  | Some (Captured_mutable _) | Some Plain | None ->
      ignore st;
      if SS.is_empty lockset then
        add_raw w.w_sum
          { ra_loc = loc; ra_desc = sprintf "%s (%s)" name what;
            ra_var = Some name }

(* --- spawn-site handling --- *)

let spawn_api rev =
  match rev with
  | "spawn" :: "Domain" :: _ -> Some "Domain.spawn"
  | "create" :: "Thread" :: _ -> Some "Thread.create"
  | ("map" | "run") :: "Pool" :: _ -> Some "Pool.map"
  | ("map_parallel" | "run_parallel") :: _ -> Some "Pool.map"
  | "start" :: "Http" :: _ -> Some "Http.start"
  | _ -> None

let escape_msg api desc =
  sprintf
    "unguarded mutable state (%s) reaches a thread spawned via %s with no \
     lock held; make it Atomic.t, guard it with a mutex and [@guarded_by], \
     or suppress with a justified [@lint.allow \"domain-escape\"]"
    desc api

let spawn_req_msg api desc lock =
  sprintf
    "%s is [@guarded_by %S] but the body spawned via %s reaches it without \
     holding %s (a spawned thread cannot rely on its spawner's locks)"
    desc lock api lock

(* Emit a spawned function/closure summary at its spawn site. *)
let emit_spawn st api (sum : summary) =
  List.iter
    (fun r -> emit st "guarded-by" r.rq_loc (spawn_req_msg api r.rq_desc r.rq_lock))
    sum.sm_reqs;
  List.iter
    (fun r -> emit st "domain-escape" r.ra_loc (escape_msg api r.ra_desc))
    sum.sm_raw

let mark_called st w name =
  if not (match w.w_self with Some s -> String.equal s name | None -> false)
  then Hashtbl.replace st.st_called name ()

let resolve_fn st env name =
  match SM.find_opt name env with
  | Some (Func sum) -> Some sum
  | Some _ -> None
  | None -> Hashtbl.find_opt st.st_funcs name

(* Discharge a callee's requirements against the locks held at the call
   site; what is not discharged (and raw accesses, when no lock covers
   the call) propagates into the caller's own summary. A raw access to a
   variable the caller owns as [Local_mutable] is discharged too: the
   callee is an inner helper touching the caller's own frame, which
   stays thread-local even if the caller is later spawned. (This keys on
   the name, so a local shadowing an unrelated callee capture would be
   discharged wrongly — acceptable for a lint.) *)
let propagate w env lockset (callee : summary) =
  List.iter
    (fun r -> if not (SS.mem r.rq_lock lockset) then add_req w.w_sum r)
    callee.sm_reqs;
  if SS.is_empty lockset then
    List.iter
      (fun r ->
        let owned =
          match r.ra_var with
          | Some v -> (
              match SM.find_opt v env with
              | Some (Local_mutable _) -> true
              | _ -> false)
          | None -> false
        in
        if not owned then add_raw w.w_sum r)
      callee.sm_raw

(* --- the walker --- *)

(* [walk st w env ~loop lockset e] returns the lock set held after [e].
   [loop] is true inside a predicate-rechecking context (a [while] body
   or a [let rec] function), for the condvar rule. *)
let rec walk st w env ~loop lockset e =
  let desc = (strip e).pexp_desc in
  match desc with
  | Pexp_ident { txt; _ } -> (
      match flatten txt with
      | [ name ] -> (
          match SM.find_opt name env with
          | Some (Guarded_ref m) ->
              if not (SS.mem m lockset) then
                add_req w.w_sum
                  { rq_lock = m; rq_loc = e.pexp_loc; rq_desc = name };
              lockset
          | Some _ -> lockset
          | None ->
              if Hashtbl.mem st.st_funcs name then mark_called st w name;
              lockset)
      | _ -> lockset)
  | Pexp_field (base, lid) ->
      let lockset = walk st w env ~loop lockset base in
      check_field_access st w lockset e.pexp_loc
        (path_str e) (field_name lid.txt);
      lockset
  | Pexp_setfield (base, lid, v) ->
      let lockset = walk st w env ~loop lockset base in
      let lockset = walk st w env ~loop lockset v in
      check_field_access st w lockset e.pexp_loc
        (path_str base ^ "." ^ field_name lid.txt)
        (field_name lid.txt);
      lockset
  | Pexp_apply (f, args) -> walk_apply st w env ~loop lockset e f args
  | Pexp_let (rf, vbs, body) ->
      let recursive = rf = Asttypes.Recursive in
      let env', lockset =
        List.fold_left
          (fun (env', lockset) vb ->
            let names = pat_vars [] vb.pvb_pat in
            match (names, binding_guard vb) with
            | [ n ], Some m when not (is_function vb.pvb_expr) ->
                ignore (walk st w env ~loop lockset vb.pvb_expr);
                (SM.add n (Guarded_ref m) env', lockset)
            | [ n ], _ when is_function vb.pvb_expr ->
                let sum =
                  analyze_fn st env ~self:(Some n) ~recursive ~spawned:false
                    vb.pvb_expr
                in
                (SM.add n (Func sum) env', lockset)
            | [ n ], None -> (
                match mutable_creation vb.pvb_expr with
                | Some "atomic" ->
                    ignore (walk st w env ~loop lockset vb.pvb_expr);
                    (SM.add n Atomic_val env', lockset)
                | Some what ->
                    ignore (walk st w env ~loop lockset vb.pvb_expr);
                    (SM.add n (Local_mutable what) env', lockset)
                | None ->
                    let lockset = walk st w env ~loop lockset vb.pvb_expr in
                    (SM.add n Plain env', lockset))
            | _ ->
                let lockset = walk st w env ~loop lockset vb.pvb_expr in
                (add_pat env' vb.pvb_pat, lockset))
          (env, lockset) vbs
      in
      walk st w env' ~loop lockset body
  | Pexp_sequence (a, b) ->
      let lockset = walk st w env ~loop lockset a in
      walk st w env ~loop lockset b
  | Pexp_ifthenelse (c, t, e_opt) ->
      let lockset = walk st w env ~loop lockset c in
      let lt = walk st w env ~loop lockset t in
      let le =
        match e_opt with
        | Some e -> walk st w env ~loop lockset e
        | None -> lockset
      in
      SS.inter lt le
  | Pexp_match (scr, cases) | Pexp_try (scr, cases) ->
      let lockset = walk st w env ~loop lockset scr in
      walk_cases st w env ~loop lockset cases
  | Pexp_while (c, body) ->
      let lockset = walk st w env ~loop lockset c in
      ignore (walk st w env ~loop:true lockset body);
      lockset
  | Pexp_for (p, lo, hi, _, body) ->
      let lockset = walk st w env ~loop lockset lo in
      let lockset = walk st w env ~loop lockset hi in
      ignore (walk st w (add_pat env p) ~loop:true lockset body);
      lockset
  | Pexp_fun (_, default, pat, body) ->
      (* A closure not in binding/spawn position (an iteration callback,
         a stored callback): analyzed with the ambient lock set — right
         for synchronous higher-order calls, a documented approximation
         for stored-and-deferred closures. *)
      Option.iter (fun d -> ignore (walk st w env ~loop lockset d)) default;
      ignore (walk st w (add_pat env pat) ~loop lockset body);
      lockset
  | Pexp_function cases -> walk_cases st w env ~loop lockset cases
  | Pexp_lazy e | Pexp_assert e | Pexp_open (_, e) | Pexp_letexception (_, e)
    ->
      walk st w env ~loop lockset e
  | Pexp_letmodule (_, _, e) -> walk st w env ~loop lockset e
  | _ ->
      (* Generic fallback: walk direct sub-expressions with the current
         lock set (tuples, records, constructors, arrays, ...). *)
      List.iter
        (fun c -> ignore (walk st w env ~loop lockset c))
        (children e);
      lockset

and children e =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      Ast_iterator.expr = (fun _ c -> acc := c :: !acc);
    }
  in
  Ast_iterator.default_iterator.Ast_iterator.expr it e;
  List.rev !acc

and walk_cases st w env ~loop lockset cases =
  match cases with
  | [] -> lockset
  | _ ->
      List.fold_left
        (fun acc (c : case) ->
          let env = add_pat env c.pc_lhs in
          let lockset =
            match c.pc_guard with
            | Some g -> walk st w env ~loop lockset g
            | None -> lockset
          in
          let out = walk st w env ~loop lockset c.pc_rhs in
          match acc with None -> Some out | Some a -> Some (SS.inter a out))
        None cases
      |> Option.value ~default:lockset

and walk_apply st w env ~loop lockset e f args =
  let walk_args lockset =
    List.fold_left
      (fun lockset (_, a) ->
        match (strip a).pexp_desc with
        | Pexp_fun _ | Pexp_function _ ->
            ignore (walk st w env ~loop lockset a);
            lockset
        | _ -> walk st w env ~loop lockset a)
      lockset args
  in
  match head_rev f with
  | "lock" :: "Mutex" :: _ -> (
      match positional args with
      | m :: _ ->
          let lockset = walk_args lockset in
          SS.add (lock_name m) lockset
      | [] -> walk_args lockset)
  | "unlock" :: "Mutex" :: _ -> (
      match positional args with
      | m :: _ ->
          let lockset = walk_args lockset in
          SS.remove (lock_name m) lockset
      | [] -> walk_args lockset)
  | "protect" :: "Mutex" :: _ -> (
      match positional args with
      | m :: thunk :: _ -> (
          let inner = SS.add (lock_name m) lockset in
          ignore (walk st w env ~loop lockset m);
          (match (strip thunk).pexp_desc with
          | Pexp_fun (_, _, pat, body) ->
              ignore (walk st w (add_pat env pat) ~loop inner body)
          | Pexp_ident { txt; _ } -> (
              match flatten txt with
              | [ name ] -> (
                  mark_called st w name;
                  match resolve_fn st env name with
                  | Some sum -> propagate w env inner sum
                  | None -> ())
              | _ -> ())
          | _ -> ignore (walk st w env ~loop lockset thunk));
          lockset)
      | _ -> walk_args lockset)
  | "wait" :: "Condition" :: _ ->
      if not loop then
        emit st "condvar-recheck" e.pexp_loc
          "Condition.wait outside a predicate-rechecking loop misses \
           wakeups that fire before the wait (and spurious wakeups break \
           it); re-test the predicate in a while/let-rec loop around the \
           wait, as Wakeup.park does";
      walk_args lockset
  | "get" :: "Atomic" :: _ ->
      (match positional args with
      | p :: _ -> Hashtbl.replace w.w_got (path_str p) ()
      | [] -> ());
      walk_args lockset
  | "set" :: "Atomic" :: _ ->
      (match positional args with
      | p :: _ ->
          let path = path_str p in
          if SS.is_empty lockset && Hashtbl.mem w.w_got path then
            emit st "atomic-rmw" e.pexp_loc
              (sprintf
                 "Atomic.get of %s earlier in this function followed by \
                  Atomic.set is a read-modify-write with a lost-update \
                  window; use Atomic.fetch_and_add/compare_and_set, or \
                  serialize the set under the mutex"
                 path)
      | [] -> ());
      walk_args lockset
  | ("!" | ":=" | "incr" | "decr" as op) :: rest
    when rest = [] || rest = [ "Stdlib" ] -> (
      match positional args with
      | r :: tl ->
          let what = if String.equal op "!" then "read" else "write" in
          (match (strip r).pexp_desc with
          | Pexp_ident { txt; _ } -> (
              match flatten txt with
              | [ name ] ->
                  check_var_access st w env lockset e.pexp_loc name
                    (sprintf "ref %s" what)
              | _ -> ())
          | _ -> ignore (walk st w env ~loop lockset r));
          List.fold_left (fun ls a -> walk st w env ~loop ls a) lockset tl
      | [] -> lockset)
  | ("set" | "unsafe_set" | "fill" | "blit") :: ("Array" | "Bytes") :: _ -> (
      match positional args with
      | base :: _ ->
          (match (strip base).pexp_desc with
          | Pexp_ident { txt; _ } -> (
              match flatten txt with
              | [ name ] ->
                  check_var_access st w env lockset e.pexp_loc name
                    "array write"
              | _ -> ())
          | _ -> ());
          walk_args lockset
      | [] -> walk_args lockset)
  | fn :: m :: _ when container_module m || String.equal m "Rng" -> (
      if mutator m fn then
        match positional args with
        | base :: _ -> (
            match (strip base).pexp_desc with
            | Pexp_ident { txt; _ } -> (
                match flatten txt with
                | [ name ] ->
                    check_var_access st w env lockset e.pexp_loc name
                      (sprintf "%s.%s" m fn)
                | _ -> ())
            | _ -> ())
        | [] -> ());
      walk_args lockset
  | rev -> (
      match spawn_api rev with
      | Some api ->
          walk_spawn st w env ~loop lockset api args;
          lockset
      | None -> (
          match head_rev f with
          | [ name ] when resolve_fn st env name <> None ->
              mark_called st w name;
              (match resolve_fn st env name with
              | Some sum -> propagate w env lockset sum
              | None -> ());
              walk_args lockset
          | _ ->
              let lockset = walk st w env ~loop lockset f in
              walk_args lockset))

(* At a spawn site every function-valued argument escapes to another
   thread: closure literals are re-analyzed in a spawned context with
   an empty lock set; named local functions contribute their fixpoint
   summaries; partial applications do both, and additionally flag
   thread-private mutable bindings handed over as arguments. *)
and walk_spawn st w env ~loop lockset api args =
  List.iter
    (fun (_, (a : expression)) ->
      match (strip a).pexp_desc with
      | Pexp_fun _ | Pexp_function _ ->
          let sum =
            analyze_fn st env ~self:None ~recursive:false ~spawned:true a
          in
          emit_spawn st api sum
      | Pexp_ident { txt; _ } -> (
          match flatten txt with
          | [ name ] -> (
              match SM.find_opt name env with
              | Some (Local_mutable what) | Some (Captured_mutable what) ->
                  emit st "domain-escape" a.pexp_loc
                    (escape_msg api (sprintf "%s, a %s" name what))
              | _ -> (
                  mark_called st w name;
                  match resolve_fn st env name with
                  | Some sum -> emit_spawn st api sum
                  | None -> ()))
          | _ -> ())
      | Pexp_apply (h, inner) -> (
          (* Only a partial application of a known local function builds
             a closure over its arguments; anything else ([!r],
             [sprintf ...]) evaluates to a value on the spawning thread
             and is walked as ordinary code. *)
          match head_rev h with
          | [ name ] when resolve_fn st env name <> None ->
              mark_called st w name;
              (match resolve_fn st env name with
              | Some sum -> emit_spawn st api sum
              | None -> ());
              List.iter
                (fun (_, (ia : expression)) ->
                  match (strip ia).pexp_desc with
                  | Pexp_ident { txt; _ } -> (
                      match flatten txt with
                      | [ n ] -> (
                          match SM.find_opt n env with
                          | Some (Local_mutable what)
                          | Some (Captured_mutable what) ->
                              emit st "domain-escape" ia.pexp_loc
                                (escape_msg api (sprintf "%s, a %s" n what))
                          | _ -> ())
                      | _ -> ())
                  | _ -> ignore (walk st w env ~loop lockset ia))
                inner
          | _ -> ignore (walk st w env ~loop lockset a))
      | _ -> ignore (walk st w env ~loop lockset a))
    args

(* Analyze one function (a [fun]/[function] chain): parameters shadow,
   enclosing thread-private state is seen as captured, the body starts
   with no locks held. Returns the function's summary. *)
and analyze_fn st env ~self ~recursive ~spawned expr =
  ignore spawned;
  let sum = fresh_summary () in
  let w = { w_sum = sum; w_self = self; w_got = Hashtbl.create 4 } in
  let env = capture_env env in
  let env =
    match self with Some n -> SM.add n Plain env | None -> env
  in
  let rec go env e =
    match (strip e).pexp_desc with
    | Pexp_fun (_, default, pat, body) ->
        Option.iter
          (fun d -> ignore (walk st w env ~loop:recursive SS.empty d))
          default;
        go (add_pat env pat) body
    | Pexp_function cases ->
        List.iter
          (fun (c : case) ->
            let env = add_pat env c.pc_lhs in
            Option.iter
              (fun g -> ignore (walk st w env ~loop:recursive SS.empty g))
              c.pc_guard;
            ignore (walk st w env ~loop:recursive SS.empty c.pc_rhs))
          cases
    | _ -> ignore (walk st w env ~loop:recursive SS.empty e)
  in
  go env expr;
  sum

(* --- per-file driver --- *)

(* Top-level bindings, flattened through (possibly functor) submodule
   structures in declaration order. *)
type top = {
  tp_name : string option;  (* None for [let () = ...] / Pstr_eval *)
  tp_expr : expression;
  tp_recursive : bool;
  tp_guard : string option;
  tp_loc : Location.t;
}

let rec collect_tops acc (items : structure) =
  List.fold_left
    (fun acc (si : structure_item) ->
      match si.pstr_desc with
      | Pstr_value (rf, vbs) ->
          List.fold_left
            (fun acc vb ->
              let name =
                match pat_vars [] vb.pvb_pat with [ n ] -> Some n | _ -> None
              in
              {
                tp_name = name;
                tp_expr = vb.pvb_expr;
                tp_recursive = rf = Asttypes.Recursive;
                tp_guard = binding_guard vb;
                tp_loc = vb.pvb_loc;
              }
              :: acc)
            acc vbs
      | Pstr_eval (e, _) ->
          {
            tp_name = None;
            tp_expr = e;
            tp_recursive = false;
            tp_guard = None;
            tp_loc = si.pstr_loc;
          }
          :: acc
      | Pstr_module mb -> collect_tops_mod acc mb.pmb_expr
      | Pstr_recmodule mbs ->
          List.fold_left (fun acc mb -> collect_tops_mod acc mb.pmb_expr) acc
            mbs
      | _ -> acc)
    acc items

and collect_tops_mod acc (me : module_expr) =
  match me.pmod_desc with
  | Pmod_structure items -> collect_tops acc items
  | Pmod_functor (_, body) -> collect_tops_mod acc body
  | Pmod_constraint (me, _) -> collect_tops_mod acc me
  | _ -> acc

(* The completeness half of [guarded-by]: a record that carries a
   [Mutex.t] field declares a locking story; every mutable or container
   sibling must then say which lock covers it (or why none does). *)
let check_record_completeness st =
  let by_type = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (fi : E.field_info) ->
      match Hashtbl.find_opt by_type fi.fi_type with
      | None ->
          order := fi.fi_type :: !order;
          Hashtbl.add by_type fi.fi_type [ fi ]
      | Some l -> Hashtbl.replace by_type fi.fi_type (fi :: l))
    st.st_local_fields;
  List.iter
    (fun ty ->
      let fields = List.rev (Hashtbl.find by_type ty) in
      if List.exists (fun (fi : E.field_info) -> fi.fi_mutex) fields then
        List.iter
          (fun (fi : E.field_info) ->
            if
              (fi.fi_mutable || fi.fi_container)
              && (not fi.fi_atomic) && (not fi.fi_mutex)
              && fi.fi_guard = None
              && not (List.mem "guarded-by" fi.fi_allowed)
            then
              emit st "guarded-by" fi.fi_loc
                (sprintf
                   "mutable field %s of record %s, which carries a Mutex.t, \
                    has no locking story: annotate it [@guarded_by \
                    \"<mutex-field>\"], make it Atomic.t, or exempt it with \
                    a label-level [@lint.allow \"guarded-by\"] stating the \
                    single-writer/pre-publication invariant"
                   fi.fi_name ty))
          fields)
    (List.rev !order)

(* Build the top-level environment a round sees: value bindings become
   Captured_mutable (top-level mutable state is shared from birth),
   Atomic_val, or Guarded_ref; functions resolve via [st_funcs]. *)
let top_env_entry env (t : top) =
  match t.tp_name with
  | None -> env
  | Some n ->
      if is_function t.tp_expr then env
      else (
        match t.tp_guard with
        | Some m -> SM.add n (Guarded_ref m) env
        | None -> (
            match mutable_creation t.tp_expr with
            | Some "atomic" -> SM.add n Atomic_val env
            | Some what -> SM.add n (Captured_mutable what) env
            | None -> SM.add n Plain env))

let analyze_structure ~fields ~file (str : structure) =
  let st =
    {
      st_file = file;
      st_local_fields =
        List.filter (fun (fi : E.field_info) -> String.equal fi.fi_file file) fields;
      st_all_fields = fields;
      st_funcs = Hashtbl.create 16;
      st_called = Hashtbl.create 16;
      st_report = false;
      st_out = [];
    }
  in
  let tops = List.rev (collect_tops [] str) in
  (* Three rounds: round 1 seeds summaries in declaration order, rounds
     2..3 re-run with callee summaries available so requirements and raw
     accesses propagate through [let rec ... and] back-references and
     helper chains; findings are only emitted in the final round. *)
  let rounds = 3 in
  for round = 1 to rounds do
    st.st_report <- round = rounds;
    Hashtbl.reset st.st_called;
    ignore
      (List.fold_left
         (fun env t ->
           (if is_function t.tp_expr then
              let sum =
                analyze_fn st env
                  ~self:t.tp_name ~recursive:t.tp_recursive ~spawned:false
                  t.tp_expr
              in
              match t.tp_name with
              | Some n -> Hashtbl.replace st.st_funcs n sum
              | None -> ()
            else
              (* Module-initialization code runs unlocked on the loading
                 thread: its guarded-access requirements are violations
                 outright. *)
              let sum =
                analyze_fn st env ~self:None ~recursive:false ~spawned:false
                  t.tp_expr
              in
              if st.st_report then
                List.iter
                  (fun r ->
                    emit st "guarded-by" r.rq_loc
                      (sprintf
                         "%s is [@guarded_by %S] but module-initialization \
                          code reaches it without holding %s"
                         r.rq_desc r.rq_lock r.rq_lock))
                  sum.sm_reqs);
           top_env_entry env t)
         SM.empty tops)
  done;
  (* Entry points: a top-level function nobody in this file references
     must satisfy its own lock requirements — exported helpers that
     lean on a caller's lock need a suppression stating the contract. *)
  List.iter
    (fun t ->
      match t.tp_name with
      | Some n when is_function t.tp_expr && not (Hashtbl.mem st.st_called n)
        -> (
          match Hashtbl.find_opt st.st_funcs n with
          | Some sum ->
              List.iter
                (fun r ->
                  emit st "guarded-by" r.rq_loc
                    (sprintf
                       "%s is [@guarded_by %S] but %s (no in-file caller \
                        holds the lock for it) reaches this access without \
                        holding %s"
                       r.rq_desc r.rq_lock n r.rq_lock))
                sum.sm_reqs
          | None -> ())
      | _ -> ())
    tops;
  check_record_completeness st;
  (* Deduplicate (a function spawned at several sites reports each
     access once) and restore walk order. *)
  let seen = Hashtbl.create 16 in
  List.filter
    (fun f ->
      let key =
        (f.cf_rule, f.cf_loc.Location.loc_start.Lexing.pos_lnum,
         f.cf_loc.Location.loc_start.Lexing.pos_cnum, f.cf_msg)
      in
      if Hashtbl.mem seen key then false
      else (
        Hashtbl.add seen key ();
        true))
    (List.rev st.st_out)

(* --- memoized entry point --- *)

(* Four registered rules share one analysis; memoize per (file,
   structure) so the engine's four [on_file] hooks pay for one walk.
   Keyed by physical equality of the parsetree: a re-parse of the same
   path invalidates naturally. *)
(* The linter is strictly single-threaded (the CLI and the test suite
   drive it from one thread; nothing here ever meets Pool), so a shared
   memo table cannot race. *)
let[@lint.allow "domain-safety"] memo :
    (string, structure * finding list) Hashtbl.t =
  Hashtbl.create 16

let analyze ~fields ~file str =
  match Hashtbl.find_opt memo file with
  | Some (s, fs) when s == str -> fs
  | _ ->
      let fs = analyze_structure ~fields ~file str in
      Hashtbl.replace memo file (str, fs);
      fs

let findings_for ~rule ctx str =
  List.iter
    (fun f -> if String.equal f.cf_rule rule then ctx.E.add f.cf_loc f.cf_msg)
    (analyze ~fields:ctx.E.fields ~file:ctx.E.file str)

