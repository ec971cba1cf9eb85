(** Wall-clock runtime: drives a cluster of {!Node}s over a real
    {!Bamboo_network.Transport} backend (in-process lock-free rings or TCP
    sockets) with OS threads and real timers.

    This is the deployment counterpart of the simulator — same engine, no
    modelling: real SHA-256 hashing, real HMAC signature verification, real
    sockets when the TCP transport is used, and the {!Kvstore} execution
    layer applied to every committed transaction. Used by the integration
    tests, the deployment example and the deployed HTTP front end
    ([Bamboo_cluster.Host]); the paper's experiments use {!Runtime}. *)

type report = {
  duration : float;  (** Wall-clock seconds measured. *)
  committed_txs : int;  (** Distinct transactions committed. *)
  committed_blocks : int array;  (** Per replica. *)
  throughput : float;
  consistent : bool;  (** The {!Agreement} oracle found no conflict. *)
  kv_consistent : bool;
      (** {!kv_consistent} over every replica's committed height and
          store hash. *)
  any_violation : bool;
}

val kv_consistent : (int * string) list -> bool
(** Execution-layer agreement over [(committed height, store hash)]
    pairs: every pair of stores at an equal height must hash identically.
    Stores at different heights are not compared. *)

(** Interface of an instantiated runtime; [endpoint] is the transport's
    endpoint type. *)
module type RUNTIME = sig
  type endpoint

  type cluster

  val start :
    ?owned:int array ->
    ?traces:Bamboo_obs.Trace.t array ->
    ?epoch:float ->
    config:Config.t ->
    endpoints:endpoint array ->
    unit ->
    cluster
  (** Spawns one thread per owned replica; nodes begin proposing
      immediately. [owned] (default: all of [0..config.n-1]) names the
      replica ids this process hosts — a multi-process deployment runs
      [start ~owned:[|self|]] in each OS process, with the transport
      carrying messages between them. [endpoints] and [traces] are
      indexed positionally against [owned]; [traces.(i)] (default
      {!Bamboo_obs.Trace.null}) receives that replica's consensus events
      with timestamps relative to [epoch] (default: now) — pass the same
      epoch to every process so merged traces share a clock. *)

  val submit_admission :
    cluster -> replica:int -> Bamboo_types.Tx.t list -> int
  (** Injects client transactions at an owned replica (thread-safe) and
      returns how many of them the replica's mempool admitted — the
      ingest path's backpressure signal: a short count means the pool is
      full (or the txs are duplicates) and the client should be shed,
      not silently dropped. The runtime keeps no per-tx latency: a client
      measures its own, from this call to {!wait_tx_committed}. Raises
      [Invalid_argument] for a replica this cluster does not own. *)

  val committed_txs : cluster -> int

  val rejected_txs : cluster -> int
  (** Total mempool rejections across this cluster's owned replicas. *)

  val tx_committed : cluster -> Bamboo_types.Tx.id -> bool

  val kv_get : cluster -> replica:int -> string -> string option
  (** Reads the replica's executed key-value state. *)

  val wait_committed : cluster -> count:int -> timeout_s:float -> bool
  (** Blocks until at least [count] distinct transactions have committed,
      or the timeout elapses; returns whether the count was reached. The
      waiter parks on a {!Bamboo_network.Wakeup} doorbell each commit
      rings, so it returns as soon as the count is reached; the timeout is
      honored within a few milliseconds. *)

  val wait_tx_committed :
    cluster -> Bamboo_types.Tx.id -> timeout_s:float -> bool
  (** Like {!wait_committed}, for one transaction. *)

  val stop : cluster -> report
  (** Stops all threads, closes the endpoints, and reports. *)
end

module Make_batched (T : Bamboo_network.Transport.S) :
  RUNTIME with type endpoint = T.t
(** The runtime over transport [T]: each replica thread drains a whole
    batch of messages per wakeup via [recv_batch] (one synchronization
    round per batch, not per message) and fires all due timers from a
    min-heap per pass. *)
