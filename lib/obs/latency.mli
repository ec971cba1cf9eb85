(** Per-transaction latency decomposition.

    Each committed transaction's client-observed latency is split into the
    stages of the paper's queuing pipeline, all measured at the replica
    the client submitted to:

    - [client_wire]: client-to-replica submission plus the commit
      response, both over the (possibly fluctuating) client link;
    - [cpu_queue]: time the transaction's CPU charges (ingest batch,
      block creation) spent waiting behind earlier work in the replica's
      CPU queue;
    - [cpu_service]: the CPU charges themselves;
    - [mempool_wait]: residency in the mempool until batched into a
      proposal;
    - [nic_serialization]: outbound NIC backlog created by broadcasting
      the proposal carrying the transaction (the paper's [t_NIC] term,
      times the fan-out);
    - [consensus_wait]: the remainder — wire propagation, remote
      processing, vote aggregation, and the chained certifications the
      commit rule requires (the paper's [t_L + t_commit]).

    The components sum to the measured latency by construction; the mean
    of each component over a run is compared against the analytic model's
    terms. *)

type t

type summary = {
  samples : int;
  client_wire : float;
  cpu_queue : float;
  cpu_service : float;
  mempool_wait : float;
  nic_serialization : float;
  consensus_wait : float;
  total : float;  (** Mean measured client latency of the decomposed txs. *)
}

val create : unit -> t

val record :
  t ->
  client_wire:float ->
  cpu_queue:float ->
  cpu_service:float ->
  mempool_wait:float ->
  nic_serialization:float ->
  consensus_wait:float ->
  total:float ->
  unit
(** [record t ~client_wire ... ~total] folds one transaction's six
    components, in seconds, and its measured latency [total] into the
    running means. The components are plain labelled floats, not a
    record, so a call allocates nothing. *)

val summarize : t -> summary
(** Mean of every component, in seconds. *)

val components_sum : summary -> float
(** Sum of the component means; equals [total] up to float rounding. *)

val pp_summary : Format.formatter -> summary -> unit
