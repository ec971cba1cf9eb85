(** The global invariant oracle (paper §III-C, checked rather than
    assumed).

    The paper's forking and silence attacks "degrade performance without
    violating safety" — which is only meaningful if safety actually holds
    in the implementation. These monitors verify it after a run. Nothing
    here runs inside the simulation, so an unchecked run is bit-identical
    to a checked one.

    One monitor family, {!check_trace}, judges every plane: simulator
    runs (a ring sink, or a [--trace-format jsonl] file) and merged
    cluster traces alike. Both runtimes trace node outputs through
    {!Bamboo.Node_trace}, so events name blocks by hash the same way
    everywhere. It checks:
    - {e agreement}: no two commits of one height name different blocks;
    - {e certification uniqueness}: at most one block is certified per
      view — two QCs for different blocks in one view require an honest
      quorum overlap to have double-voted;
    - {e vote safety}: no honest replica votes for two blocks in a view,
      and none votes in a view it abandoned by broadcasting a timeout;
    - {e liveness}: a commit lands in a window [(after, until]].

    Agreement is the {!Bamboo.Agreement} oracle's: a simulator result
    carries its verdict, and {!check_trace} feeds it [Commit] events.
    {!evaluate} judges a finished simulator run and derives the liveness
    window from the fault schedule ({!check_liveness}). *)

type invariant = Agreement | Cert_unique | Vote_safety | Liveness

val invariant_name : invariant -> string
(** ["agreement"], ["cert_unique"], ["vote_safety"], ["liveness"]. *)

val invariant_of_name : string -> (invariant, string) result

type violation = { invariant : invariant; detail : string }

type report = {
  violations : violation list;
  skipped : (invariant * string) list;
      (** Checks that were not applicable to this scenario (e.g. liveness
          under a permanent partition), with the reason. *)
}

val pass : report -> bool

type opts = {
  recover_views : int;
      (** Bounded-liveness budget: commits must resume within this many
          view-timeout periods of the last fault heal. *)
}

val default_opts : opts
(** [recover_views = 10]. *)

(** {2 Individual monitors} *)

val check_agreement :
  ?show:(Bamboo_types.Ids.hash -> string) ->
  ?local_conflicts:bool array ->
  Bamboo.Agreement.verdict ->
  violation list
(** One line per replica whose [local_conflicts] flag is set, then one per
    oracle conflict; [show] (default {!Bamboo_types.Ids.short}) renders a
    hash. *)

val check_liveness :
  ?opts:opts ->
  config:Bamboo.Config.t ->
  Bamboo_obs.Trace.event list ->
  (violation list, string) result
(** A commit must land in [(heal, heal + budget]], where [heal] is the
    last fault heal of the schedule and the budget [recover_views] view
    timeouts (stretched by the largest clock skew).

    [Ok violations] when the bounded-liveness check applies; [Error
    reason] when the scenario makes it vacuous (more than [f] replicas
    permanently faulty, a never-healed partition, permanent delays at the
    timeout scale, backoff timers under faults, or a horizon too short to
    contain the recovery budget). *)

val restart_arg : string * Bamboo_util.Json.t
(** [("restart", Bool true)]: the arg marking a [Fault_heal] event as a
    process restart, after which the replica has lost its vote history.
    The cluster trace merge puts it on its synthetic restart markers. *)

val check_trace :
  ?byz_no:int ->
  ?expect_commit_after:float ->
  Bamboo_obs.Trace.event list ->
  report
(** The hash-keyed checks over any trace, simulator or merged cluster
    JSONL. Events are keyed by the block hash carried in their [args]
    (span ids are per-process counters) and read in
    {!Bamboo_obs.Trace.chronological} order:

    - {e agreement}: no replica re-commits a height with a different
      block, and no two replicas commit different blocks at the same
      height ([Commit] events, one finding per pair, listed first);
    - {e certification uniqueness}: one certified block per view
      ([Qc_formed] events);
    - {e vote safety}: no honest replica (id [>= byz_no]) votes for two
      different blocks in one view or votes in a view it abandoned.
      Re-sending the same vote is benign (retransmits, restart
      catch-up). A [Fault_heal] carrying {!restart_arg} resets that
      node's vote state; any other heal (a simulated crash keeps the
      replica's state) does not;
    - {e liveness}: when [expect_commit_after] is given, a commit must
      land in [(expect_commit_after, ∞)] — {!check_liveness}'s rule with
      an open end.

    Events lacking the expected args are skipped, not misread. *)

val evaluate :
  ?opts:opts ->
  config:Bamboo.Config.t ->
  result:Bamboo.Runtime.result ->
  events:Bamboo_obs.Trace.event list ->
  unit ->
  report
(** One finished simulator run: {!check_agreement} over its verdict and
    local conflict flags, {!check_trace}'s certification and vote-safety
    checks, then {!check_liveness}. *)
