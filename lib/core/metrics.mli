(** Benchmark metrics (paper §IV-B): throughput, client latency, and the
    two micro-metrics — chain growth rate (CGR, Eq. 1: committed blocks per
    view over the long run) and block interval (BI, Eq. 2: average number
    of views from a block's production to its commitment).

    A collector is fed by the runtime; samples inside the warmup window are
    discarded. Time-series buckets (committed tx/s per interval) back the
    responsiveness experiment of Fig. 15. Beside the latency samples it
    keeps the running means of each tx's latency decomposition, under the
    same window. *)

type t

type summary = {
  protocol : string;
  duration : float;  (** Measured window, virtual seconds. *)
  committed_txs : int;
  committed_blocks : int;
  forked_blocks : int;
  throughput : float;  (** Committed tx/s. *)
  latency_mean : float;  (** Seconds (client-observed). *)
  latency_p50 : float;
  latency_p95 : float;
  latency_p99 : float;
  latency_samples : int;
  views : int;  (** Views entered during the window. *)
  cgr : float;
      (** Of the blocks the observer accepted and whose fate resolved
          inside the measurement window, the fraction that committed
          rather than being overwritten (Eq. 1's chain growth rate).
          Exactly 1.0 in fork-free runs. *)
  block_interval : float;  (** Mean views from production to commit. *)
  rejected_txs : int;
  safety_violation : bool;
}

(** Mean per-transaction latency, in seconds, split into the stages of
    the paper's queuing pipeline at the replica the client submitted to:
    [client_wire] (submission and commit response over the client link),
    [cpu_queue] (the tx's ingest and block-creation charges waiting in
    the CPU queue), [cpu_service] (those charges), [mempool_wait]
    (residency until batched), [nic_serialization] (the proposal's
    outbound NIC backlog, the paper's [t_NIC] times the fan-out) and
    [consensus_wait], the remainder: propagation, remote processing,
    votes and chained certifications ([t_L + t_commit]). The stage means
    sum to [total]. *)
type decomposition = {
  samples : int;
  client_wire : float;
  cpu_queue : float;
  cpu_service : float;
  mempool_wait : float;
  nic_serialization : float;
  consensus_wait : float;
  total : float;  (** Mean measured client latency of the decomposed txs. *)
}

val create : warmup:float -> horizon:float -> bucket:float -> t
(** Samples with timestamps in [\[warmup, horizon)] are recorded;
    [bucket] is the time-series granularity in seconds. *)

val in_window : t -> now:float -> bool

val record_latency : t -> now:float -> issued_at:float -> latency:float -> bool
(** Counted, and [true] returned, when the transaction was issued after
    warmup and completed before the horizon. *)

val record_stages :
  t ->
  now:float ->
  issued_at:float ->
  client_wire:float ->
  cpu_queue:float ->
  cpu_service:float ->
  mempool_wait:float ->
  nic_serialization:float ->
  unit
(** Folds one transaction's stages, in seconds, into the decomposition's
    running means, under {!record_latency}'s window. Its latency is
    [now - issued_at], and its consensus wait what the five given stages
    leave of it. The stages are plain labelled floats, not a record, so
    a call allocates nothing. *)

val record_commit :
  t -> now:float -> ntxs:int -> nblocks:int -> hashes:string list -> unit
(** [hashes] are the committed blocks' hashes, matched against the appended
    set for the CGR numerator. A matched hash leaves the set: a block
    commits or is forked once, so the set holds only the appended blocks
    whose fate is still open. *)

val record_block_interval : t -> now:float -> views:int -> unit

val record_fork :
  t -> now:float -> nblocks:int -> hashes:string list -> unit
(** Overwritten (pruned) blocks; those in the appended set count against
    the CGR and leave it. *)

val record_append : t -> now:float -> hash:string -> unit
(** A block the observing replica accepted (voted for). *)

val set_view_span : t -> first:int -> last:int -> unit
(** Views held by the observing replica at window start and end. *)

val summarize :
  t ->
  protocol:string ->
  rejected_txs:int ->
  safety_violation:bool ->
  summary

val decomposition : t -> decomposition
(** Mean of every stage recorded by {!record_stages}. *)

val throughput_series : t -> (float * float) list
(** [(bucket_start_time, committed tx/s in bucket)] over the whole run,
    including warmup (Fig. 15 plots the transient). *)

val pp_summary : Format.formatter -> summary -> unit

val pp_decomposition : Format.formatter -> decomposition -> unit
