(** Structured tracing for simulator and protocol runs.

    A trace is a stream of typed events, each carrying the replica id, the
    view, the virtual timestamp, and a span id that correlates all events
    of one block's lifetime (proposal, votes, certification, commit).

    Three sinks are provided:
    - {!ring}: a bounded in-memory ring buffer (tests, post-mortem
      inspection) that keeps the most recent [capacity] events;
    - {!jsonl}: one JSON object per line, schema
      [{"seq","ts","node","view","kind","span","args"}], timestamps in
      virtual seconds;
    - {!chrome}: the Chrome [trace_event] format — one "process" per
      replica, one "thread" per machine queue (consensus / cpu / nic_out /
      nic_in) — so a run opens directly in [chrome://tracing] or
      {{:https://ui.perfetto.dev}Perfetto}.

    The disabled trace {!null} reduces every emission to a single tag
    check with no allocation, so instrumented code paths cost nothing
    measurable when tracing is off. Emission never schedules simulator
    events: enabling a trace cannot perturb a run. *)

type kind =
  | Proposal_sent
  | Proposal_received
  | Vote_sent
  | Vote_received
  | Qc_formed  (** A vote quorum was assembled locally. *)
  | Timeout_fired  (** Local view timer expired; timeout broadcast. *)
  | Timeout_received
  | View_change  (** The pacemaker entered a new view. *)
  | Commit
  | Fork_prune  (** Blocks overwritten by a commit. *)
  | Tx_enqueue  (** Transactions accepted into the mempool. *)
  | Tx_dequeue  (** Transactions batched into a proposal. *)
  | Service  (** A machine-queue service span (ring/jsonl sinks). *)
  | Gauge  (** A probe sample (ring/jsonl sinks). *)
  | Fault_inject  (** A scheduled fault became active ([bamboo_faults]). *)
  | Fault_heal  (** A scheduled fault healed. *)

type event = {
  seq : int;  (** Emission order, 0-based. *)
  ts : float;  (** Virtual time, seconds. *)
  node : int;  (** Replica id; -1 for cluster-level events. *)
  view : int;
  kind : kind;
  span : int;  (** 0 when the event belongs to no span. *)
  args : (string * Bamboo_util.Json.t) list;
}

type t

val null : t
(** The disabled trace: every operation is a no-op. *)

val ring : capacity:int -> t
(** In-memory sink retaining the last [capacity] events. *)

val jsonl : out_channel -> t
(** Streaming JSONL sink. The caller owns the channel; call {!close}
    before closing it. *)

val chrome : out_channel -> t
(** Chrome trace_event sink. Writes the container opening immediately;
    {!close} must be called to produce valid JSON. *)

val enabled : t -> bool

val fresh_span : t -> int
(** Allocates a new nonzero span id. *)

val emit :
  t ->
  ts:float ->
  node:int ->
  ?view:int ->
  ?span:int ->
  ?args:(string * Bamboo_util.Json.t) list ->
  kind ->
  unit

val service :
  t ->
  node:int ->
  queue:[ `Cpu | `Nic_out | `Nic_in ] ->
  start:float ->
  duration:float ->
  unit
(** A service span on one of the machine queues; rendered as a duration
    event on the queue's thread in the Chrome sink. *)

val gauge : t -> ts:float -> node:int -> name:string -> float -> unit
(** A sampled gauge value; rendered as a counter event in the Chrome
    sink. *)

val events : t -> event list
(** Buffered events, oldest first. Empty for non-ring sinks. *)

val close : t -> unit
(** Finalizes file sinks (writes the Chrome container close, flushes).
    No-op for [null] and ring sinks. *)

val kind_name : kind -> string

val kind_of_name : string -> (kind, string) result
(** Inverse of {!kind_name}. *)

val event_to_json : event -> Bamboo_util.Json.t
(** The JSONL schema of one event. *)

val event_of_json : Bamboo_util.Json.t -> (event, string) result
(** Inverse of {!event_to_json}, for re-reading JSONL traces (e.g. when
    merging per-node cluster traces). Tolerates a missing or null [args]
    member; any other shape mismatch is an [Error]. *)

val chronological : event -> event -> int
(** Orders events by [(ts, node, seq)]: the order in which monitors read
    a trace, and the order a merge of per-process traces is written in. *)

val read_jsonl : string -> event list * int
(** Reads a JSONL trace file — a simulator run's [--trace-format jsonl]
    output or a cluster's per-node or merged trace. Tolerant: a
    SIGKILLed process leaves a torn final line, so unparseable lines are
    counted and skipped instead of failing the read. Returns the events
    in file order and the number of lines skipped; a missing file reads
    as [([], 0)]. *)
