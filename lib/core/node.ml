open Bamboo_types
module Forest = Bamboo_forest.Forest
module Mempool = Bamboo_mempool.Mempool
module Quorum = Bamboo_quorum.Quorum

type timer = View_timeout of Ids.view | Propose_at of Ids.view

type input =
  | Receive of Message.t
  | Timer of timer
  | Submit of Tx.t list

type output =
  | Send of { dst : Ids.replica; msg : Message.t }
  | Broadcast of Message.t
  | Set_timer of { timer : timer; after : float }
  | Committed of { blocks : Block.t list; trigger_view : Ids.view }
  | Forked of Block.t list
  | Proposed of Block.t
  | Voted of Block.t
  | Qc_formed of Qc.t
  | Entered_view of { view : Ids.view; reason : string }

type t = {
  config : Config.t;
  self : Ids.replica;
  registry : Bamboo_crypto.Sig.registry;
  verify_sigs : bool;
  root : [ `Merkle | `Flat ];
  byzantine : bool;
  forest : Forest.t;
  mempool : Mempool.t;
  quorum : Quorum.t;
  pacemaker : Pacemaker.t;
  election : Election.t;
  safety : Safety.t;
  certified : (Ids.hash, Qc.t) Hashtbl.t;
  verified_qcs : (string, unit) Hashtbl.t;
      (* successful [Qc.verify] results, keyed by {!Qc.cache_key} (full
         content, not view): the same certificate arrives many times —
         embedded in proposals, timeout messages and vote quorums — and
         each verification is a whole HMAC batch. Failures are never
         cached, and a tampered copy has a different key. *)
  pending_blocks : (Ids.hash, (Block.t * Tcert.t option) list) Hashtbl.t;
      (* children waiting for a missing parent, keyed by parent hash *)
  pending_qcs : (Ids.hash, Qc.t) Hashtbl.t; (* QCs for not-yet-seen blocks *)
  seen : (string, unit) Hashtbl.t; (* message de-duplication / echo *)
  requested : (Ids.hash, Ids.replica) Hashtbl.t;
      (* blocks asked for, with the peer last tried; retried on view
         timeout against the next peer in case request or reply was lost *)
  mutable proposed_through : Ids.view; (* highest view we proposed in *)
  mutable rejected_txs : int;
  mutable violation : bool;
  (* observe-only tallies for the metrics layer *)
  mutable view_changes : int;
  mutable timeouts_fired : int;
}

let src = Logs.Src.create "bamboo.node" ~doc:"Bamboo replica engine"

module Log = (val Logs.src_log src : Logs.LOG)

let create ~config ~self ~registry ?(verify_sigs = true) ?(root = `Merkle)
    ?wrap_safety () =
  (match Config.validate config with
  | Ok _ -> ()
  | Error e -> invalid_arg ("Node.create: " ^ e));
  if self < 0 || self >= config.Config.n then
    invalid_arg "Node.create: self out of range";
  let forest = Forest.create () in
  let certified = Hashtbl.create 256 in
  Hashtbl.add certified Block.genesis_hash Safety.genesis_qc;
  let chain =
    Safety.{ forest; qc_of = (fun h -> Hashtbl.find_opt certified h) }
  in
  let ctx =
    Safety.
      {
        n = config.Config.n;
        self;
        registry;
        quorum = Config.quorum_size config;
      }
  in
  let base =
    match config.Config.protocol with
    | Config.Hotstuff -> Hotstuff.make ctx chain
    | Config.Twochain -> Twochain.make ctx chain
    | Config.Streamlet -> Streamlet.make ctx chain
    | Config.Fasthotstuff -> Fasthotstuff.make ctx chain
  in
  let base =
    match config.Config.echo with
    | None -> base
    | Some echo -> { base with Safety.echo }
  in
  let byzantine = self < config.Config.byz_no in
  let safety =
    if byzantine then
      Byzantine.apply config.Config.strategy config.Config.protocol ~chain base
    else base
  in
  let safety =
    match wrap_safety with None -> safety | Some wrap -> wrap safety
  in
  {
    config;
    self;
    registry;
    verify_sigs;
    root;
    byzantine;
    forest;
    mempool = Mempool.create ~capacity:config.Config.memsize ();
    quorum = Quorum.create ~n:config.Config.n;
    pacemaker =
      Pacemaker.create ~backoff:config.Config.backoff
        ~timeout:config.Config.timeout ();
    election = Election.create config.Config.election ~n:config.Config.n;
    safety;
    certified;
    verified_qcs = Hashtbl.create 64;
    pending_blocks = Hashtbl.create 16;
    pending_qcs = Hashtbl.create 16;
    seen = Hashtbl.create 1024;
    requested = Hashtbl.create 16;
    proposed_through = 0;
    rejected_txs = 0;
    violation = false;
    view_changes = 0;
    timeouts_fired = 0;
  }

(* Outputs are accumulated in reverse and flipped once per [handle]. *)
let emit out o = out := o :: !out

let first_seen t key =
  if Hashtbl.mem t.seen key then false
  else begin
    Hashtbl.add t.seen key ();
    true
  end

(* Cached certificate verification. Byzantine-forged QCs still fail: only
   successful verifications enter the cache, under a key covering the
   certificate's full content, so a tampered QC (same block and view,
   different signatures) always reaches [Qc.verify] and is rejected. *)
let verify_qc t qc =
  (not t.verify_sigs)
  || Qc.is_genesis qc
  ||
  let key = Qc.cache_key qc in
  if Hashtbl.mem t.verified_qcs key then true
  else if Qc.verify t.registry ~quorum:(Quorum.quorum_size t.quorum) qc then begin
    Hashtbl.add t.verified_qcs key ();
    true
  end
  else false

let do_commit t out target ~trigger_view =
  match Forest.commit t.forest target with
  | Ok (newly, forked) ->
      List.iter (fun (b : Block.t) -> Mempool.forget t.mempool b.txs) newly;
      List.iter
        (fun (b : Block.t) ->
          ignore (Mempool.requeue_front t.mempool b.txs : int))
        forked;
      Quorum.gc t.quorum ~below_view:(Forest.last_committed t.forest).Block.view;
      emit out (Committed { blocks = newly; trigger_view });
      if forked <> [] then emit out (Forked forked)
  | Error Forest.Already_committed -> ()
  | Error Forest.Unknown_block ->
      (* The commit rule only designates blocks reachable in the forest. *)
      assert false
  | Error Forest.Conflicts_with_committed ->
      t.violation <- true;
      Log.err (fun m ->
          m "replica %d: commit target %a conflicts with finalized prefix"
            t.self Ids.pp_hash target)

let rec do_propose t out view =
  (* If a quorum certified a block we have not received yet (votes are
     small and overtake the block broadcast), proposing now would build on
     a stale parent and fork the chain; wait for the block — its arrival
     re-triggers the proposal, and the view timer backstops the wait. *)
  (* Bucket order is irrelevant here: the fold computes a commutative OR
     over the pending QCs, so any visit order yields the same boolean. *)
  let[@lint.allow "no-order-leak"] blind_qc =
    Hashtbl.fold
      (fun _ (qc : Qc.t) acc -> acc || qc.view >= view - 1)
      t.pending_qcs false
  in
  if (not blind_qc) && t.proposed_through < view then begin
    t.proposed_through <- view;
    let tc =
      match Pacemaker.entry_reason t.pacemaker with
      | Pacemaker.Via_tc tc when tc.Tcert.view = view - 1 -> Some tc
      | Pacemaker.Via_tc _ | Pacemaker.Via_qc _ | Pacemaker.Startup -> None
    in
    match t.safety.Safety.propose ~view ~tc with
    | None -> () (* silence strategy, or nothing to build on *)
    | Some Safety.{ parent; justify } ->
        let txs = Mempool.batch t.mempool ~max:t.config.Config.bsize in
        let block =
          Block.create ~root:t.root ~view ~parent ~justify ~proposer:t.self
            ~txs ()
        in
        let msg = Message.Proposal { block; tc } in
        emit out (Broadcast msg);
        emit out (Proposed block);
        (* Deliver our own proposal locally (transports skip self). *)
        handle_proposal t out block tc
  end

and try_advance t out ~to_view ~reason =
  if Pacemaker.advance t.pacemaker ~to_view ~reason then begin
    t.view_changes <- t.view_changes + 1;
    emit out
      (Entered_view { view = to_view; reason = Pacemaker.reason_label reason });
    emit out
      (Set_timer
         {
           timer = View_timeout to_view;
           after = Pacemaker.timer_duration t.pacemaker;
         });
    if Election.is_leader t.election ~view:to_view ~self:t.self then begin
      let defer =
        match (t.config.Config.propose_policy, reason) with
        | Config.Wait_timeout, Pacemaker.Via_tc _ -> true
        | Config.Wait_timeout, (Pacemaker.Via_qc _ | Pacemaker.Startup)
        | Config.Immediate, _ ->
            false
      in
      if defer then
        (* Non-responsive protocols wait out the maximal network delay
           after a view change before proposing. The wait is kept inside
           the view timer (80%) so the proposal reaches replicas before
           their timers expire — a deployment sets the view timer with
           margin above the assumed maximal delay. *)
        emit out
          (Set_timer
             {
               timer = Propose_at to_view;
               after = 0.8 *. Pacemaker.timer_duration t.pacemaker;
             })
      else do_propose t out to_view
    end
  end

and register_qc t out (qc : Qc.t) =
  if not (Hashtbl.mem t.certified qc.block) then begin
    if not (verify_qc t qc) then ()
    else if Forest.mem t.forest qc.block then begin
      Hashtbl.add t.certified qc.block qc;
      (match t.safety.Safety.on_qc qc with
      | Some target -> do_commit t out target ~trigger_view:qc.view
      | None -> ());
      try_advance t out ~to_view:(qc.view + 1) ~reason:(Pacemaker.Via_qc qc)
    end
    else begin
      (* Certificate for a block we have not received yet: stash it and
         apply it when the block arrives; fetch the block from one of its
         voters (who must hold it). Advancing is still safe — the QC is
         evidence that its view completed. *)
      if not (Hashtbl.mem t.pending_qcs qc.block) then begin
        Hashtbl.add t.pending_qcs qc.block qc;
        if not (Hashtbl.mem t.requested qc.block) then begin
          let voter =
            List.find_map
              (fun (s : Bamboo_crypto.Sig.t) ->
                if s.signer <> t.self then Some s.signer else None)
              qc.sigs
          in
          match voter with
          | Some dst ->
              Hashtbl.replace t.requested qc.block dst;
              emit out
                (Send
                   {
                     dst;
                     msg =
                       Message.Request_block
                         { hash = qc.block; requester = t.self };
                   })
          | None -> ()
        end
      end;
      try_advance t out ~to_view:(qc.view + 1) ~reason:(Pacemaker.Via_qc qc)
    end
  end
  else try_advance t out ~to_view:(qc.view + 1) ~reason:(Pacemaker.Via_qc qc)

and handle_tc t out (tc : Tcert.t) =
  if t.config.Config.tc_adopt_qc then register_qc t out tc.high_qc;
  try_advance t out ~to_view:(tc.view + 1) ~reason:(Pacemaker.Via_tc tc)

and structurally_valid t (block : Block.t) =
  String.equal block.justify.block block.parent
  && block.view > 0
  && Election.leader t.election ~view:block.view = block.proposer

and handle_proposal t out (block : Block.t) tc =
  let msg = Message.Proposal { block; tc } in
  if first_seen t (Message.key msg) then begin
    if t.safety.Safety.echo && block.proposer <> t.self then
      emit out (Broadcast msg);
    if structurally_valid t block then begin
      register_qc t out block.justify;
      (match tc with Some tc -> handle_tc t out tc | None -> ());
      match Forest.add t.forest block with
      | Forest.Added -> after_block_added t out block tc
      | Forest.Missing_parent ->
          let waiting =
            match Hashtbl.find_opt t.pending_blocks block.parent with
            | None -> []
            | Some l -> l
          in
          Hashtbl.replace t.pending_blocks block.parent ((block, tc) :: waiting);
          (* Block synchronization: fetch the missing ancestor from this
             block's proposer, which demonstrably holds it. Lost requests
             or replies are retried on view timeout. *)
          if
            block.proposer <> t.self
            && not (Hashtbl.mem t.requested block.parent)
          then begin
            Hashtbl.replace t.requested block.parent block.proposer;
            emit out
              (Send
                 {
                   dst = block.proposer;
                   msg =
                     Message.Request_block
                       { hash = block.parent; requester = t.self };
                 })
          end
      | Forest.Duplicate | Forest.Below_prune_horizon -> ()
    end
  end

and after_block_added t out (block : Block.t) tc =
  Hashtbl.remove t.requested block.hash;
  (* A stashed QC for this block can now take effect. *)
  (match Hashtbl.find_opt t.pending_qcs block.hash with
  | Some qc ->
      Hashtbl.remove t.pending_qcs block.hash;
      Hashtbl.remove t.certified block.hash;
      (* remove guard so register_qc re-runs *)
      register_qc t out qc;
      (* The arrival may unblock a proposal deferred on the blind QC. *)
      let view = Pacemaker.current_view t.pacemaker in
      if
        Election.is_leader t.election ~view ~self:t.self
        && t.proposed_through < view
      then do_propose t out view
  | None -> ());
  (* Voting rule: the protocol's own [should_vote] (and its last-voted-view
     state) fully governs voting — chained-BFT replicas vote on the first
     valid proposal of any view beyond their last voted/abandoned one, even
     before their pacemaker catches up. *)
  if
    (not (Pacemaker.timed_out t.pacemaker block.view))
    && t.safety.Safety.should_vote ~block ~tc
  then begin
    emit out (Voted block);
    let vote =
      Vote.create t.registry ~voter:t.self ~block:block.hash ~view:block.view
        ~height:block.height
    in
    t.safety.Safety.on_vote_sent block;
    if t.safety.Safety.vote_broadcast then begin
      emit out (Broadcast (Message.Vote vote));
      handle_vote t out vote (* count our own broadcast vote *)
    end
    else begin
      let dst = Election.leader t.election ~view:(block.view + 1) in
      if dst = t.self then handle_vote t out vote
      else emit out (Send { dst; msg = Message.Vote vote })
    end
  end;
  (* Unblock any children that were waiting for this block. *)
  match Hashtbl.find_opt t.pending_blocks block.hash with
  | None -> ()
  | Some waiting ->
      Hashtbl.remove t.pending_blocks block.hash;
      List.iter
        (fun (child, child_tc) ->
          match Forest.add t.forest child with
          | Forest.Added -> after_block_added t out child child_tc
          | Forest.Duplicate | Forest.Below_prune_horizon
          | Forest.Missing_parent ->
              ())
        (List.rev waiting)

and handle_vote t out (vote : Vote.t) =
  let msg = Message.Vote vote in
  if first_seen t (Message.key msg) then begin
    if t.safety.Safety.echo && vote.voter <> t.self then
      emit out (Broadcast msg);
    if t.verify_sigs && not (Vote.verify t.registry vote) then ()
    else
      match Quorum.voted t.quorum vote with
      | Some qc ->
          emit out (Qc_formed qc);
          register_qc t out qc
      | None -> ()
  end

and handle_timeout_msg t out (tm : Timeout_msg.t) =
  let msg = Message.Timeout tm in
  if first_seen t (Message.key msg) then begin
    if t.verify_sigs && not (Timeout_msg.verify t.registry tm) then ()
    else begin
      if t.config.Config.tc_adopt_qc then register_qc t out tm.high_qc;
      (match Quorum.timed_out t.quorum tm with
      | Some tc -> handle_tc t out tc
      | None -> ());
      (* View-synchronization jump: f+1 distinct replicas timing out of a
         higher view prove at least one honest replica is there; join it.
         Without this, a cluster split across two views by message loss
         (neither side holding a timeout quorum alone) deadlocks. *)
      if
        tm.view > Pacemaker.current_view t.pacemaker
        && Quorum.timeout_count t.quorum ~view:tm.view
           >= Quorum.fault_bound t.quorum + 1
      then
        try_advance t out ~to_view:tm.view ~reason:Pacemaker.Startup
    end
  end

let handle_timer t out = function
  | View_timeout view -> (
      match Pacemaker.note_timer_fired t.pacemaker view with
      | `Stale -> ()
      | `Broadcast_timeout ->
          t.timeouts_fired <- t.timeouts_fired + 1;
          t.safety.Safety.note_view_abandoned view;
          let tm =
            Timeout_msg.create t.registry ~sender:t.self ~view
              ~high_qc:(t.safety.Safety.timeout_high_qc ())
          in
          emit out (Broadcast (Message.Timeout tm));
          (* Re-arm: while stuck in this view, keep re-broadcasting so that
             lost timeout messages cannot prevent the TC from forming. *)
          emit out
            (Set_timer
               {
                 timer = View_timeout view;
                 after = Pacemaker.timer_duration t.pacemaker;
               });
          (* Retry outstanding block fetches against the next peer — the
             earlier request or its reply may have been lost. The snapshot
             is sorted by hash so the emitted Send sequence (and hence the
             trace) does not depend on bucket order. *)
          List.iter
            (fun (hash, last_dst) ->
              if not (Forest.mem t.forest hash) then begin
                let dst = ref ((last_dst + 1) mod t.config.Config.n) in
                if !dst = t.self then
                  dst := (!dst + 1) mod t.config.Config.n;
                if !dst <> t.self then begin
                  Hashtbl.replace t.requested hash !dst;
                  emit out
                    (Send
                       {
                         dst = !dst;
                         msg =
                           Message.Request_block { hash; requester = t.self };
                       })
                end
              end)
            (Bamboo_util.Tbl.sorted_bindings ~compare:String.compare
               t.requested);
          handle_timeout_msg t out tm)
  | Propose_at view ->
      if Pacemaker.current_view t.pacemaker = view then do_propose t out view

let handle_submit t txs =
  List.iter
    (fun tx ->
      if not (Mempool.add t.mempool tx) then
        t.rejected_txs <- t.rejected_txs + 1)
    txs

let seen_before t msg = Hashtbl.mem t.seen (Message.key msg)

let handle_request t out ~hash ~requester =
  if requester >= 0 && requester < t.config.Config.n && requester <> t.self
  then
    match Forest.find t.forest hash with
    | Some block ->
        emit out
          (Send
             { dst = requester; msg = Message.Proposal { block; tc = None } })
    | None -> ()

let handle t input =
  let out = ref [] in
  (match input with
  | Receive (Message.Proposal { block; tc }) -> handle_proposal t out block tc
  | Receive (Message.Vote v) -> handle_vote t out v
  | Receive (Message.Timeout tm) -> handle_timeout_msg t out tm
  | Receive (Message.Request_block { hash; requester }) ->
      handle_request t out ~hash ~requester
  | Timer timer -> handle_timer t out timer
  | Submit txs -> handle_submit t txs);
  List.rev !out

let start t =
  let out = ref [] in
  emit out
    (Set_timer
       {
         timer = View_timeout 1;
         after = Pacemaker.timer_duration t.pacemaker;
       });
  if Election.is_leader t.election ~view:1 ~self:t.self then
    do_propose t out 1;
  List.rev !out

let self t = t.self
let protocol_name t = t.safety.Safety.name
let is_byzantine t = t.byzantine
let current_view t = Pacemaker.current_view t.pacemaker
let forest t = t.forest
let mempool_size t = Mempool.length t.mempool
let high_qc t = t.safety.Safety.high_qc ()
let locked t = t.safety.Safety.locked ()
let committed_count t = Forest.committed_count t.forest - 1
let rejected_txs t = t.rejected_txs
let safety_violation t = t.violation
let view_changes t = t.view_changes
let timeouts_fired t = t.timeouts_fired
let mempool_stats t = Mempool.stats t.mempool
let last_voted_view t = t.safety.Safety.last_voted_view ()

(* Canonical digest of everything that can influence this replica's future
   behavior, for the model checker's state hashing. All hashtable-backed
   components are emitted in sorted key order so two replicas that reached
   the same abstract state through different delivery orders digest
   identically. Deliberately excluded: the verified-QC cache (performance
   memo only; empty when [verify_sigs] is off, as in the simulator),
   observe-only tallies, and mempool *contents* (length only — the explore
   scenarios run without client load, and batch composition is not part of
   the safety/liveness state space being checked). *)
let fingerprint t buf =
  let add_i i =
    Buffer.add_string buf (string_of_int i);
    Buffer.add_char buf ';'
  in
  let add_s s =
    add_i (String.length s);
    Buffer.add_string buf s
  in
  let add_qc (qc : Qc.t) =
    add_s qc.block;
    add_i qc.view;
    add_i qc.height
  in
  add_i t.self;
  (* Pacemaker: view, entry reason (its embedded certificate view governs
     TC attachment on the next proposal), backoff state, timeout high-water
     mark (the [timed_out] voting guard). *)
  add_i (Pacemaker.current_view t.pacemaker);
  (match Pacemaker.entry_reason t.pacemaker with
  | Pacemaker.Startup -> add_i 0
  | Pacemaker.Via_qc qc ->
      add_i 1;
      add_qc qc
  | Pacemaker.Via_tc tc ->
      add_i 2;
      add_i tc.Tcert.view;
      add_qc tc.Tcert.high_qc);
  add_i (Pacemaker.consecutive_timeouts t.pacemaker);
  let rec highest_timed_out v =
    if v <= 0 then 0
    else if Pacemaker.timed_out t.pacemaker v then v
    else highest_timed_out (v - 1)
  in
  add_i (highest_timed_out (Pacemaker.current_view t.pacemaker));
  (* Safety-module state. *)
  add_i (t.safety.Safety.last_voted_view ());
  (match t.safety.Safety.locked () with
  | None -> add_i 0
  | Some (h, v) ->
      add_i 1;
      add_s h;
      add_i v);
  add_qc (t.safety.Safety.high_qc ());
  add_qc (t.safety.Safety.timeout_high_qc ());
  (* Forest: committed prefix plus the uncommitted block set. *)
  add_i (Forest.committed_height t.forest);
  add_s (Forest.last_committed t.forest).Block.hash;
  let uncommitted =
    Forest.fold_uncommitted t.forest (fun acc (b : Block.t) -> b.hash :: acc) []
  in
  List.iter add_s (List.sort String.compare uncommitted);
  Buffer.add_char buf '|';
  Quorum.fingerprint t.quorum buf;
  Buffer.add_char buf '|';
  (* Certified QCs, stashed QCs/blocks, outstanding fetches, dedup set. *)
  List.iter
    (fun (h, qc) ->
      add_s h;
      add_qc qc)
    (Bamboo_util.Tbl.sorted_bindings ~compare:String.compare t.certified);
  List.iter
    (fun (h, qc) ->
      add_s h;
      add_qc qc)
    (Bamboo_util.Tbl.sorted_bindings ~compare:String.compare t.pending_qcs);
  List.iter
    (fun (parent, waiting) ->
      add_s parent;
      List.iter
        (fun ((b : Block.t), _) -> add_s b.hash)
        (List.sort
           (fun ((b1 : Block.t), _) ((b2 : Block.t), _) ->
             String.compare b1.hash b2.hash)
           waiting))
    (Bamboo_util.Tbl.sorted_bindings ~compare:String.compare t.pending_blocks);
  List.iter
    (fun (h, dst) ->
      add_s h;
      add_i dst)
    (Bamboo_util.Tbl.sorted_bindings ~compare:String.compare t.requested);
  List.iter add_s
    (Bamboo_util.Tbl.sorted_keys ~compare:String.compare t.seen);
  add_i t.proposed_through;
  add_i (Mempool.length t.mempool);
  add_i (if t.violation then 1 else 0)
