(** The simulation runtime: runs a full cluster of {!Node}s over the
    discrete-event simulator, with the machine model (CPU + NIC queues) and
    network model of paper Section V, a client workload, and metric
    collection.

    This is the testbed substitute documented in DESIGN.md: the protocol
    logic, forests, quorums and Byzantine strategies are all real; only
    machines and wires are modelled. Runs are deterministic in
    [config.seed]. *)

type result = {
  summary : Metrics.summary;
  series : (float * float) list;  (** Committed-throughput time series. *)
  final_views : int array;  (** Per-replica view at the horizon. *)
  committed_heights : int array;  (** Per-replica committed height. *)
  cpu_utilization : float array;
      (** Per-replica fraction of virtual time the modelled CPU was busy;
          identifies the bottleneck resource at saturation. *)
  consistent : bool;  (** The {!Agreement} oracle found no conflict. *)
  any_violation : bool;  (** Any replica's commit conflicted locally. *)
  violations : bool array;
      (** Per-replica local-conflict flags ({!Node.safety_violation});
          [any_violation] is their disjunction. *)
  agreement : Agreement.verdict;  (** Per-replica heads and conflicts. *)
  decomposition : Metrics.decomposition;
      (** Per-transaction end-to-end latency split into client wire, CPU
          queueing, CPU service, mempool residency, NIC serialization and
          consensus wait; components sum to the measured latency. Only
          single-target (non-broadcast) submissions contribute. *)
  probe : Bamboo_metrics.Snapshot.metric list;
      (** The resource gauges (per-replica CPU/NIC queue depths and busy
          fractions, labelled [node=<id>], and the cluster's [event_heap]),
          in registration order, as the run's registry read them at the
          end: each a {!Bamboo_metrics.Snapshot.Gauge} with its samples,
          mean and max. They live in [metrics] when the run was given an
          enabled registry, and in a private one otherwise. Empty unless
          [config.probe_interval > 0]; {!pp_probe} prints one. *)
  sim_events : int;  (** Discrete events fired by the simulator. *)
  metrics : Bamboo_metrics.Snapshot.t;
      (** Aggregate counters/gauges/histograms published at end of run:
          simulator queue tallies, network sends/drops/duplicates, crypto
          sign/verify and QC-cache counts, per-replica commit/view-change/
          timeout counters, mempool occupancy and batch fill, machine
          queue ops and peaks — plus the [probe] gauges when probing is on.
          [Snapshot.empty] unless the run was given an enabled registry. *)
}

(** {2 Controlled scheduling}

    Hooks for the [bamboo_explore] model checker. The runtime's simulator
    events are typed: each recipient of a message gets one hop event that
    moves through the machine model's stages (sender NIC, wire, receiver
    NIC, receiver CPU), and a replica timer is an event carrying its
    replica, timer and expiry. With a [scheduler] installed the runtime
    switches to a synchronous-execution abstraction: a message goes on
    the wire at once and its delivery event, which the simulator's
    controller may reorder ({!Bamboo_sim.Sim.pending_deliveries} reads
    them from the heap), executes the receive handler at the instant it
    fires — the machine pipelines (NIC serialization, CPU queueing) are
    bypassed, because pipeline contents are invisible to the checker's
    replica-state fingerprint and would make distinct states collide.
    Without a [scheduler] the runtime is byte-identical to one predating
    the hook. *)

type exec =
  | Exec_deliver of { src : int; dst : int; note : string }
      (** A controlled message delivery executed at [dst]; [note] is the
          {!Bamboo_types.Message.key} identity. *)
  | Exec_timer of { replica : int }  (** A replica timer fired. *)

type sched_view = {
  sv_nodes : Node.t array;  (** Live replica engines, for fingerprinting. *)
  sv_sim : Bamboo_sim.Sim.t;
  sv_timers : unit -> (int * int * float) list;
      (** Outstanding armed timers as [(replica, code, expiry)], sorted;
          [code] packs the timer kind with its view. Read from the pending
          timer events in the simulator's heap. *)
}
(** What the runtime exposes to a scheduler at installation time. *)

type sched_hooks = {
  sh_controller : Bamboo_sim.Sim.controller;
      (** Picks delivery order at each commutativity-window decision. *)
  sh_on_exec : exec -> unit;
      (** Called before each controlled delivery / timer handler runs
          (sleep-set wake-ups key on the executing replica). *)
}
(** What a scheduler gives back to the runtime. *)

val pp_probe : Format.formatter -> Bamboo_metrics.Snapshot.metric -> unit
(** One [probe] gauge on one line: its node ([-1] for a cluster-level
    gauge), name, mean, max and sample count. Raises [Invalid_argument]
    on a metric that is not a gauge. *)

val run :
  config:Config.t ->
  workload:Workload.t ->
  ?bucket:float ->
  ?trace:Bamboo_obs.Trace.t ->
  ?metrics:Bamboo_metrics.Registry.t ->
  ?wrap_safety:(Bamboo_types.Ids.replica -> Safety.t -> Safety.t) ->
  ?scheduler:(sched_view -> sched_hooks) ->
  unit ->
  result
(** [run ~config ~workload ()] simulates [config.runtime] virtual seconds.
    The first honest replica supplies the view/commit counts for CGR
    and BI. [bucket] (default 0.5 s) is the
    time-series granularity. [trace] (default {!Bamboo_obs.Trace.null})
    receives structured protocol/machine events; with the null sink all
    instrumentation reduces to one tag check and the simulation's event
    schedule is identical to an untraced run. Probing
    ([config.probe_interval > 0]) does add sampling events to the heap,
    though never reorders protocol events.

    [metrics] (default {!Bamboo_metrics.Registry.null}) collects aggregate
    counters/gauges/histograms. Metrics are observe-only: the hot paths
    keep plain per-run tallies that are published into the registry once
    at end of run, so simulation output is byte-identical with metrics
    enabled or disabled, at any [--jobs].

    Infrastructure faults — crashes, recoveries, partitions, per-link
    delay/loss/duplication/reordering, CPU slowdown, clock skew, delay
    fluctuation — come from [config.faults] and are executed by the
    [bamboo_faults] engine on dedicated RNG streams: a run with an empty
    schedule is bit-identical to one predating the fault subsystem.

    [wrap_safety] (test-only) is handed to every {!Node.create} with the
    replica id applied, letting the test suite plant deliberately broken
    protocol rules that the [bamboo_check] oracle must catch.

    [scheduler] (model checking) installs controlled scheduling before any
    replica boots — see {!sched_hooks}. Omitting it (or passing no
    scheduler) leaves the runtime bit-identical to the pre-hook one. *)
