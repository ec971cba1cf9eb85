(** Concurrency analysis pass behind the [guarded-by], [domain-escape],
    [atomic-rmw] and [condvar-recheck] rules.

    A per-file, summary-based dataflow analysis: a lock-set walk tracks
    [Mutex.lock]/[unlock]/[protect] regions (branch joins by
    intersection), per-function summaries carry lock requirements and
    unguarded mutable accesses through helper calls, and spawn sites
    ([Domain.spawn], [Thread.create], [Pool.map]/[run], [Http.start])
    check what the spawned body reaches. See the implementation header
    for the precise rule semantics and the deliberate syntactic
    approximations. *)

type finding = {
  cf_rule : string;  (** One of the four rule ids above. *)
  cf_loc : Location.t;
  cf_msg : string;
}

val analyze :
  fields:Lint_engine.field_info list ->
  file:string ->
  Parsetree.structure ->
  finding list
(** Run (or fetch the memoized result of) the shared analysis for one
    implementation file. Deterministic: findings come back in walk
    order, deduplicated by (rule, location, message). *)

val findings_for :
  rule:string -> Lint_engine.rule_ctx -> Parsetree.structure -> unit
(** [on_file] adapter: report the memoized findings carrying [rule]
    through [ctx.add]. The four registered rules share one walk. *)
