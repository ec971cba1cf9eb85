(** Experiment configuration: the parameters of Table I of the paper, plus
    the simulator's machine/network parameters of Section V. A configuration
    is immutable for a run and can be round-tripped through JSON ("managed
    via a JSON file distributed to every node"). *)

type protocol = Hotstuff | Twochain | Streamlet | Fasthotstuff

type strategy = Honest | Silence | Fork
(** The Byzantine Proposing-rule strategies of §IV-A. The paper's default
    [strategy] value is "silence"; it only takes effect for replicas with
    id < [byz_no]. *)

type election = Rotation | Static of int | Hashed
(** [master = 0] in Table I means rotating leadership; [Static i] pins the
    leader, [Hashed] derives the leader from a hash of the view. *)

type propose_policy = Immediate | Wait_timeout
(** Whether a new-view leader proposes as soon as it holds a QC/TC for the
    previous view (optimistic responsiveness) or waits out the view timer
    first (the non-responsive setting of the Fig. 15 "t100" experiment). *)

type trace_format = Jsonl | Chrome
(** Output format for structured traces: JSON-lines (one event per line)
    or the Chrome trace_event format (opens in Perfetto). *)

type t = {
  protocol : protocol;
  n : int;  (** Number of replicas. *)
  byz_no : int;  (** Number of Byzantine nodes (Table I [byzNo]). *)
  strategy : strategy;
  election : election;
  bsize : int;  (** Transactions per block (default 400). *)
  memsize : int;  (** Mempool capacity (default 1000 in the paper; the
                      simulator default is larger so that open-loop
                      saturation sweeps are not capped by admission). *)
  psize : int;  (** Transaction payload bytes (default 0). *)
  timeout : float;  (** View timeout in seconds (Table I: 100 ms). *)
  backoff : float;
      (** Geometric view-timer growth across consecutive timed-out views
          (1.0 = fixed timers, the paper's setting); resets on progress. *)
  propose_policy : propose_policy;
  tc_adopt_qc : bool;
      (** Whether replicas adopt the highest QC carried by timeout
          messages / timeout certificates. The paper's pacemaker (§III-B)
          broadcasts plain <TIMEOUT, v>, so the default is [false]; the
          next leader then proposes from its own hQC. Fast-HotStuff's
          responsive view change requires [true]. *)
  echo : bool option;
      (** Overrides the protocol's message-echoing behaviour (Streamlet
          echoes by default, the HotStuff family does not); [None] keeps
          the protocol's own choice. Used by the echo-cost ablation. *)
  runtime : float;  (** Measured run duration in virtual seconds. *)
  warmup : float;  (** Virtual seconds excluded from metrics. *)
  (* Simulator machine/network parameters (Section V). *)
  mu : float;  (** Mean one-way replica-replica delay, seconds. *)
  sigma : float;  (** Stddev of that delay. *)
  extra_delay_mu : float;  (** Table I [delay]: added mean delay. *)
  extra_delay_sigma : float;
  loss : float;
      (** Independent per-message drop probability in the simulated
          network, [0, 1). Replicas recover missing ancestors through the
          block-synchronization protocol. Default 0. *)
  bandwidth : float;  (** NIC bandwidth, bytes/second. *)
  cpu_op : float;  (** Seconds per crypto op (sign or verify). *)
  cpu_per_tx : float;  (** Per-transaction hashing/validation seconds. *)
  seed : int;
  jobs : int;
      (** Worker domains for the parallel experiment driver (the [jobs]
          JSON key / [--jobs] flag). Affects only how many independent
          simulation cells run concurrently — never the simulation
          itself, whose output is bit-identical at any job count. Default:
          [Domain.recommended_domain_count ()]; must be [>= 1]. *)
  (* Observability (off by default; disabled instrumentation is free). *)
  trace_file : string option;  (** Write a structured trace here. *)
  trace_format : trace_format;
  probe_interval : float;
      (** Virtual-time period for sampling CPU/NIC queue depths and
          utilization; 0 (the default) disables probing. *)
  faults : Bamboo_faults.Schedule.t;
      (** Declarative fault schedule (the JSON [faults] section), executed
          by the [bamboo_faults] engine during the run. Empty (the
          default) leaves the run bit-identical to a fault-free one. *)
}

val default : t
(** Table I defaults: HotStuff, n = 4, no Byzantine nodes, rotating
    leaders, bsize 400, psize 0, timeout 100 ms, plus the calibrated
    simulator parameters documented in DESIGN.md §4. *)

val quorum_size : t -> int

val validate : t -> (t, string) result
(** Checks cross-field invariants (e.g. [byz_no <= f], positive sizes).
    Every float field must be finite: NaN or an infinity is an error
    naming the field. *)

val to_json : t -> Bamboo_util.Json.t

val of_json : Bamboo_util.Json.t -> (t, string) result
(** Missing fields take their {!default} value; unknown fields are
    rejected. *)

val protocol_name : protocol -> string

val protocol_of_name : string -> (protocol, string) result
(** Accepts each {!protocol_name} and the short aliases [hs], [2chs], [sl]
    and [fhs]. The JSON configuration and every command-line flag that
    names a protocol parse it here. *)

val strategy_name : strategy -> string

val strategy_of_name : string -> (strategy, string) result
(** Accepts each {!strategy_name} and the alias [forking]. *)

val trace_format_name : trace_format -> string

val trace_format_of_name : string -> (trace_format, string) result

val pp : Format.formatter -> t -> unit
