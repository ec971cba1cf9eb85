(** The two schedule-exploration strategies over {!Scheduler.run}, plus
    counterexample minimization and replayable artifacts.

    Determinism contract (mirrors the fuzzer's): {!dfs} with the same
    scenario, window, depth and budget produces the same [stats] — state
    counts byte-identical — and the same counterexample at any [jobs]
    value; {!pct} likewise for a fixed [root_seed]. Parallelism only
    batches independent re-executions; all shared-state updates (visited
    set, sibling spawning, failure selection) happen sequentially in
    submission order. *)

type stats = {
  runs : int;  (** Complete executions simulated. *)
  states : int;
      (** Decision-states the DFS expanded (0 for PCT). With reduction on,
          each distinct fingerprint is expanded once; with [por:false] —
          the brute-force baseline, no state hashing or sleep sets —
          every visit counts, so the on/off ratio {e is} the reduction. *)
  decisions : int;  (** Recorded decision points across all runs. *)
  pruned_sleep : int;  (** Sibling branches skipped as asleep (POR). *)
  pruned_visited : int;
      (** Run suffixes truncated at an already-visited state. *)
  sleep_stops : int;  (** Runs cut short at an all-asleep decision. *)
  frontier_peak : int;  (** High-water mark of the DFS frontier. *)
  exhausted : bool;
      (** The DFS drained its frontier within [max_runs]: the bounded
          space (depth [max_decisions], the given window) is fully
          explored. Always false for PCT. *)
}

type counterexample = {
  c_minimized : Bamboo_check.Fuzz.minimized;
      (** Scenario + invariant + detail, shrunk like a fuzzer artifact. *)
  c_strategy : string;  (** ["dfs"] or ["pct"]. *)
  c_window : float;
  c_explore_after : float;  (** Start of the explored time range. *)
  c_choices : int list;  (** Minimized schedule; replays the violation. *)
  c_shrink_runs : int;  (** Replays spent shrinking. *)
}

val dfs :
  ?wrap:(Bamboo_types.Ids.replica -> Bamboo.Safety.t -> Bamboo.Safety.t) ->
  ?opts:Bamboo_check.Monitor.opts ->
  ?por:bool ->
  ?explore_after:float ->
  window:float ->
  max_decisions:int ->
  max_runs:int ->
  jobs:int ->
  Bamboo_check.Scenario.t ->
  stats * counterexample option
(** Exhaustive bounded DFS over delivery schedules: wave-parallel
    re-execution with state-hash deduplication and sleep-set partial-order
    reduction. [por:false] disables {e both} (the brute-force enumeration
    baseline, for measuring the reduction). Stops at the first violation
    (in deterministic order) or when the frontier drains / [max_runs] is
    spent. *)

val pct :
  ?wrap:(Bamboo_types.Ids.replica -> Bamboo.Safety.t -> Bamboo.Safety.t) ->
  ?opts:Bamboo_check.Monitor.opts ->
  ?explore_after:float ->
  window:float ->
  max_decisions:int ->
  max_runs:int ->
  d:int ->
  root_seed:int ->
  jobs:int ->
  Bamboo_check.Scenario.t ->
  stats * counterexample option
(** PCT-style randomized priority schedules for depth beyond DFS reach:
    run [index] draws per-replica priorities and [d] priority-change
    points from a stream seeded by [(root_seed, index)] alone (like
    {!Bamboo_check.Scenario.generate}), picks the highest-priority
    destination at each decision, and demotes the winner at change
    points. *)

(** {2 Replayable artifacts}

    A counterexample serializes as a fuzzer reproducer (so existing
    tooling parses it) plus a ["schedule"] member; [bamboo check replay]
    detects the member and re-runs the schedule under controlled
    scheduling. *)

val counterexample_to_json : counterexample -> Bamboo_util.Json.t

type schedule = { window : float; explore_after : float; choices : int list }

val schedule_of_json :
  Bamboo_util.Json.t -> (schedule option, string) result
(** [Ok None] when the artifact has no ["schedule"] member (a plain
    fuzzer reproducer); [Ok (Some schedule)] otherwise. A missing
    ["exploreAfter"] member defaults to 0. *)
