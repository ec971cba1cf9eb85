(** The replica engine: wires the block forest, mempool, quorum system,
    pacemaker and a Safety module into a pure event-driven state machine.

    A node consumes {!input}s (messages, timer expiries, client
    transactions) and produces {!output}s (messages to transmit, timers to
    arm, commit/fork notifications). It performs no I/O and never reads a
    clock, so the same engine runs unchanged under the discrete-event
    simulator, the in-process ring transport and the TCP transport. *)

open Bamboo_types

type timer =
  | View_timeout of Ids.view  (** Pacemaker timer for the view. *)
  | Propose_at of Ids.view
      (** Deferred proposal under the [Wait_timeout] policy. *)

type input =
  | Receive of Message.t
  | Timer of timer
  | Submit of Tx.t list  (** Client transactions for this replica's pool. *)

type output =
  | Send of { dst : Ids.replica; msg : Message.t }
  | Broadcast of Message.t  (** To every replica except this one. *)
  | Set_timer of { timer : timer; after : float }
  | Committed of { blocks : Block.t list; trigger_view : Ids.view }
      (** Newly finalized blocks, by increasing height. [trigger_view] is
          the view of the QC that satisfied the commit rule; the paper's
          block-interval metric for block [b] is
          [trigger_view - b.view + 1]. *)
  | Forked of Block.t list
      (** Blocks overwritten (pruned) by the latest commit; their
          transactions have already been returned to this node's mempool
          where applicable. *)
  | Proposed of Block.t  (** This node proposed a block (for metrics). *)
  | Voted of Block.t
      (** This node accepted the block as a valid chain extension and voted
          for it. The paper's chain-growth-rate metric divides committed
          blocks by blocks appended to the chain, i.e. accepted ones. *)
  | Qc_formed of Qc.t
      (** This node assembled a vote quorum locally (for observability;
          QCs learned from proposals or timeouts are not re-announced). *)
  | Entered_view of { view : Ids.view; reason : string }
      (** The pacemaker advanced; [reason] is ["qc"], ["tc"] or
          ["startup"] (for observability). *)

type t

val create :
  config:Config.t ->
  self:Ids.replica ->
  registry:Bamboo_crypto.Sig.registry ->
  ?verify_sigs:bool ->
  ?root:[ `Merkle | `Flat ] ->
  ?wrap_safety:(Safety.t -> Safety.t) ->
  unit ->
  t
(** [verify_sigs] (default true) controls cryptographic verification of
    incoming votes/QCs/timeouts: the simulator disables it and charges the
    cost virtually; the transport runtimes keep it on. [root] is passed to
    {!Bamboo_types.Block.create}. The node's protocol and Byzantine
    wrapping are taken from [config] ([self < config.byz_no] makes this
    node Byzantine).

    [wrap_safety] (test-only) post-processes the assembled Safety module —
    after any Byzantine wrapping — so the test suite can install
    deliberately broken rules (e.g. a voting rule that votes across a
    lock) and verify that the [bamboo_check] invariant oracle catches the
    resulting divergence. Production paths never pass it. *)

val start : t -> output list
(** Enter view 1: arms the first view timer and, if this node leads view 1,
    proposes. Must be called exactly once, before any [handle]. *)

val handle : t -> input -> output list

val seen_before : t -> Bamboo_types.Message.t -> bool
(** Whether an arriving message duplicates one already processed (echoed
    copies). Read-only; used by runtimes to charge a hash-lookup cost
    instead of full verification for duplicates. *)

val verify_qc : t -> Qc.t -> bool
(** The node's cached certificate check: true if the QC is
    cryptographically valid (or [verify_sigs] is off / the QC is
    genesis). Successful verifications are memoized under the QC's full
    content key ({!Bamboo_types.Qc.cache_key}), so re-presenting a
    verified certificate skips the HMAC batch while any tampered variant
    — same view, different content — is still verified and rejected.
    Exposed for the cache's unit tests. *)

(** {2 Introspection} *)

val self : t -> Ids.replica

val protocol_name : t -> string

val is_byzantine : t -> bool

val current_view : t -> Ids.view

val forest : t -> Bamboo_forest.Forest.t

val mempool_size : t -> int

val high_qc : t -> Qc.t

val locked : t -> (Ids.hash * Ids.view) option

val committed_count : t -> int
(** Committed blocks excluding genesis. *)

val rejected_txs : t -> int
(** Transactions refused because the mempool was full. *)

val safety_violation : t -> bool
(** True if a commit ever conflicted with the finalized prefix — this must
    never happen while at most [f] replicas are Byzantine; checked by the
    property tests. *)

(** {2 Observe-only tallies} (surfaced by the metrics layer) *)

val view_changes : t -> int
(** Successful pacemaker advances (views entered, any reason). *)

val timeouts_fired : t -> int
(** View timeouts that fired and broadcast a timeout message. *)

val mempool_stats : t -> Bamboo_mempool.Mempool.stats
(** Peak occupancy and batch tallies of this replica's mempool. *)

val last_voted_view : t -> Ids.view
(** The safety module's last voted (or abandoned) view. *)

val fingerprint : t -> Buffer.t -> unit
(** Appends a canonical digest of this replica's behavior-relevant state
    — pacemaker, safety rule, forest, quorum aggregation, stashed
    blocks/QCs, dedup set — to [buf]. Order-insensitive: replicas that
    reached the same abstract state through different delivery orders
    digest identically. Used by the [bamboo_explore] model checker;
    excludes performance-only caches and observe-only tallies. *)
