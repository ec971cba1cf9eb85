(** One controlled execution of the simulator under a schedule strategy.

    The scheduler drives {!Bamboo.Runtime.run}'s controlled-scheduling
    hook through three per-decision modes:

    - {e prefix replay}: forced choices (with their sleep-set additions)
      re-steer the run down a previously explored path, computing no
      fingerprints;
    - {e recording}: each further decision is fingerprinted
      ({!Statehash.fingerprint}), checked against the sleep set, submitted
      to the strategy's [pick], and recorded in full;
    - {e tail}: once the absolute decision depth — forced prefix entries
      plus recorded decisions — reaches [max_decisions] (or at an all-asleep
      decision, whose subtree is provably redundant) the run continues to
      the horizon always taking candidate 0, so the execution still ends
      in a complete, monitor-checkable run.

    [prefix choices @ recorded choices @ tail] replays this exact
    execution (see {!replay} and {!choices_of}). *)

type ident = { i_src : int; i_dst : int; i_note : string }
(** Stable identity of a deliverable message: source, destination and
    {!Bamboo_types.Message.key}. The unit of sleep-set bookkeeping. *)

val ident_of : Bamboo_sim.Sim.candidate -> ident

type forced = {
  f_choice : int;
      (** Candidate index to take at this decision; out-of-range values
          are clamped to 0 so shrunk schedules always replay. *)
  f_sleep : ident list;
      (** Identities put to sleep immediately before taking the choice:
          the siblings the DFS already explored at this decision. *)
}

type view = {
  v_now : float;
  v_index : int;  (** Index among this run's recorded decisions. *)
  v_fingerprint : string;  (** [""] when fingerprinting is disabled. *)
  v_candidates : Bamboo_sim.Sim.candidate array;
  v_asleep : bool array;  (** Per-candidate sleep-set membership. *)
}
(** What a strategy's [pick] sees at a recorded decision. *)

type decision = {
  d_now : float;
  d_fingerprint : string;
  d_candidates : Bamboo_sim.Sim.candidate array;
  d_asleep : bool array;
  d_choice : int;
}

type stop =
  | Horizon  (** The run ended while still recording. *)
  | Depth  (** [max_decisions] recorded decisions were reached. *)
  | All_asleep  (** A decision's candidates were all asleep. *)

type outcome = {
  o_decisions : decision list;  (** Recorded decisions, in order. *)
  o_tail : int list;  (** Choices taken after recording stopped (all 0). *)
  o_stop : stop;
  o_verdict : Bamboo_check.Fuzz.verdict;
  o_sim_decisions : int;  (** Total decision points in the run. *)
}

val scenario :
  ?faults:Bamboo_faults.Schedule.t ->
  protocol:Bamboo.Config.protocol ->
  n:int ->
  byz_no:int ->
  strategy:Bamboo.Config.strategy ->
  horizon:float ->
  timeout:float ->
  unit ->
  Bamboo_check.Scenario.t
(** A model-checking cell: no client load, deterministic 1 ms delays
    (sigma 0, so one broadcast's deliveries share an instant and form
    decisions), fixed timers, and no faults unless a [faults] schedule is
    given (partitions make message loss — and hence deeper
    schedule-dependent divergence — reachable). Raises [Invalid_argument]
    if the resulting configuration does not validate. *)

val run :
  ?wrap:(Bamboo_types.Ids.replica -> Bamboo.Safety.t -> Bamboo.Safety.t) ->
  ?opts:Bamboo_check.Monitor.opts ->
  ?fingerprint:bool ->
  ?explore_after:float ->
  window:float ->
  max_decisions:int ->
  prefix:forced list ->
  pick:(view -> int) ->
  Bamboo_check.Scenario.t ->
  outcome
(** One complete controlled execution. [fingerprint] (default true) can
    be switched off for strategies that never hash (PCT, replay).
    Decisions earlier than [explore_after] (default 0) take the natural
    order without being recorded or consuming forced choices, scoping the
    branching budget to a time range (e.g. a partition-heal boundary).
    [pick]'s return value is clamped into the candidate range. *)

val replay :
  ?wrap:(Bamboo_types.Ids.replica -> Bamboo.Safety.t -> Bamboo.Safety.t) ->
  ?opts:Bamboo_check.Monitor.opts ->
  ?explore_after:float ->
  window:float ->
  choices:int list ->
  Bamboo_check.Scenario.t ->
  outcome
(** Re-runs a serialized schedule: all [choices] forced (no sleep sets,
    no fingerprints), then candidate 0 to the horizon. [explore_after]
    must match the producing run's value for the choices to line up. *)

val choices_of : prefix:forced list -> outcome -> int list
(** The full choice list that replays the outcome's execution. *)
