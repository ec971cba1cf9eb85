(** TCP socket transport: length-prefixed {!Bamboo_types.Codec} frames over
    persistent connections, one listener per replica. This is the
    "large-scale deployment" transport of the paper's network module,
    exercised on loopback by the integration tests and for real by the
    multi-process [bamboo cluster] harness.

    Built for fault survival rather than demos:

    - Senders never touch the network. Each peer has a bounded
      {!Bamboo_util.Ring} outbox drained by a dedicated writer thread;
      a full outbox drops the message and counts it
      ([tcp_transport_dropped_full]), like a saturated NIC.
    - Writers reconnect after failures with capped exponential backoff
      (50 ms doubling to 2 s) multiplied by deterministic jitter derived
      from [(self, dst, attempt)] — no PRNG, reconnect storms spread out
      identically across runs. Messages queued while a peer is down are
      delivered after it comes back.
    - Inbound frames land in a bounded inbox; {!recv} and {!recv_batch}
      park on a doorbell ({!Wakeup}) instead of polling.
    - {!close} is graceful: it joins the accept loop, every reader and
      every writer thread, unblocking them via [shutdown] on their fds.

    [create] ignores [SIGPIPE] process-wide so writer threads see
    [EPIPE] as an exception instead of dying. *)

type t

val create :
  ?outbox_capacity:int ->
  self:int ->
  addresses:(int * Unix.sockaddr) list ->
  unit ->
  t
(** [create ~self ~addresses ()] binds the listener for [self] and starts
    one writer thread per peer; connections are dialed on first send and
    re-dialed with backoff after failures. [addresses] maps every replica
    id (including [self]) to its address. [outbox_capacity] bounds each
    per-peer send queue (default 4096, rounded up to a power of two);
    the shared receive queue holds 8192 messages. Raises [Unix.Unix_error] if the listen address is
    unavailable. *)

val loopback_addresses : n:int -> base_port:int -> (int * Unix.sockaddr) list
(** Convenience: [127.0.0.1:base_port+i] for each replica. *)

type stats = {
  sends : int;  (** Messages accepted into a peer outbox. *)
  dropped_full : int;  (** Messages dropped because an outbox was full. *)
  reconnects : int;
      (** Connections established after a disconnect or failed attempts. *)
  conn_failures : int;  (** Failed [connect] attempts. *)
  recv_msgs : int;  (** Messages drained by the consumer. *)
  recv_dropped : int;  (** Inbound messages dropped on a full inbox. *)
  peak_depth : int;  (** Highest observed inbox occupancy. *)
}

val stats : t -> stats
(** Snapshot of the endpoint's tallies. Producer-side counters are exact;
    consumer-side ones ([recv_msgs], [peak_depth]) are owned by the
    receiving thread and racy to read elsewhere. *)

val publish_metrics : t -> Bamboo_metrics.Registry.t -> unit
(** Copies {!stats} into [tcp_transport_*] registry metrics labelled with
    this endpoint's node id. *)

include Transport.S with type t := t
