(* Node engine plumbing, driven over a synchronous in-memory network: every
   Send/Broadcast is delivered immediately in FIFO order, timers are held
   in a list and fired manually. This pins down the engine's protocol
   behaviour deterministically, independent of the simulator. *)

open Bamboo_types
module Node = Bamboo.Node
module Config = Bamboo.Config

type net = {
  nodes : Node.t array;
  queue : (int * Message.t) Queue.t; (* (destination, message) *)
  mutable timers : (int * Node.timer * float) list; (* (node, timer, after) *)
  (* Output logs, newest first: prepending keeps a long [settle] linear. *)
  mutable committed : (int * Block.t) list; (* (node, block) *)
  mutable forked : (int * Block.t) list;
  mutable proposed : Block.t list;
}

let make_net ?(config = Config.default) () =
  let registry = Bamboo_crypto.Sig.setup ~n:config.Config.n ~master:"t" in
  {
    nodes =
      Array.init config.Config.n (fun self ->
          Node.create ~config ~self ~registry ());
    queue = Queue.create ();
    timers = [];
    committed = [];
    forked = [];
    proposed = [];
  }

let absorb net src outs =
  let n = Array.length net.nodes in
  List.iter
    (fun out ->
      match out with
      | Node.Send { dst; msg } -> Queue.push (dst, msg) net.queue
      | Node.Broadcast msg ->
          for dst = 0 to n - 1 do
            if dst <> src then Queue.push (dst, msg) net.queue
          done
      | Node.Set_timer { timer; after } ->
          net.timers <- (src, timer, after) :: net.timers
      | Node.Committed { blocks; _ } ->
          List.iter (fun b -> net.committed <- (src, b) :: net.committed) blocks
      | Node.Forked blocks ->
          List.iter (fun b -> net.forked <- (src, b) :: net.forked) blocks
      | Node.Proposed b -> net.proposed <- b :: net.proposed
      | Node.Voted _ -> ()
      | Node.Qc_formed _ | Node.Entered_view _ -> ())
    outs

let start net =
  Array.iteri (fun i node -> absorb net i (Node.start node)) net.nodes

(* Deliver queued messages in FIFO order. With instant delivery an idle
   chained-BFT cluster self-perpetuates (each QC triggers the next
   proposal), so delivery is bounded rather than run to quiescence. *)
let settle ?(budget = 20_000) net =
  let budget = ref budget in
  while (not (Queue.is_empty net.queue)) && !budget > 0 do
    decr budget;
    let dst, msg = Queue.pop net.queue in
    absorb net dst (Node.handle net.nodes.(dst) (Receive msg))
  done

(* Fire all pending view timers once (simulating every timer expiring). *)
let fire_timers net =
  let pending = List.rev net.timers in
  net.timers <- [];
  List.iter
    (fun (src, timer, _) ->
      absorb net src (Node.handle net.nodes.(src) (Timer timer)))
    pending;
  settle net

let submit net ~replica txs =
  absorb net replica (Node.handle net.nodes.(replica) (Submit txs));
  settle net

(* Replica [i]'s commits, oldest first. *)
let committed_of net i =
  List.rev
    (List.filter_map (fun (n, b) -> if n = i then Some b else None) net.committed)

(* --- tests --- *)

let test_start_leader_proposes () =
  let net = make_net () in
  start net;
  settle net;
  (* Leader of view 1 is replica 1 (rotation); one proposal expected, and
     with instant delivery the pipeline races ahead: every node ends in
     the same view. *)
  Alcotest.(check bool) "someone proposed" true (List.length net.proposed >= 1);
  (* Delivery was cut mid-cascade, so nodes may straddle a view boundary,
     but never more. *)
  let views = Array.map Node.current_view net.nodes in
  let lo = Array.fold_left min max_int views in
  let hi = Array.fold_left max 0 views in
  Alcotest.(check bool) "views within one of each other" true (hi - lo <= 1);
  Alcotest.(check bool) "made progress" true (lo > 10)

let test_empty_blocks_commit () =
  let net = make_net () in
  start net;
  settle net;
  (* With no load the chain still grows (empty blocks) and commits: drive a
     few rounds by settling — instant delivery means proposals cascade
     until... they self-perpetuate, so commits appear without timers. *)
  Alcotest.(check bool) "commits happened" true (List.length net.committed > 0)

let test_committed_prefix_consistency () =
  let net = make_net () in
  start net;
  settle net;
  submit net ~replica:0 (Helpers.txs 10);
  settle net;
  let f0 = Node.forest net.nodes.(0) in
  let h0 = Bamboo_forest.Forest.committed_height f0 in
  Array.iteri
    (fun _ node ->
      let f = Node.forest node in
      let h = min h0 (Bamboo_forest.Forest.committed_height f) in
      for height = 0 to h do
        match
          ( Bamboo_forest.Forest.committed_at f0 height,
            Bamboo_forest.Forest.committed_at f height )
        with
        | Some a, Some b ->
            Alcotest.(check bool) "same block at height" true (Block.equal a b)
        | _ -> Alcotest.fail "missing committed block"
      done)
    net.nodes

let test_txs_flow_into_blocks () =
  let net = make_net () in
  start net;
  settle net;
  let txs = Helpers.txs ~client:5 7 in
  submit net ~replica:2 txs;
  (* Keep the pipeline moving until the txs commit. *)
  let rec drive n =
    if n = 0 then Alcotest.fail "txs never committed"
    else begin
      settle net;
      let all_committed_txs =
        List.concat_map (fun (_, (b : Block.t)) -> Body.to_list b.body) net.committed
      in
      if
        List.for_all
          (fun (t : Tx.t) -> List.exists (Tx.equal t) all_committed_txs)
          txs
      then ()
      else begin
        fire_timers net;
        drive (n - 1)
      end
    end
  in
  drive 20

let test_no_safety_violation () =
  let net = make_net () in
  start net;
  settle net;
  submit net ~replica:1 (Helpers.txs 5);
  fire_timers net;
  settle net;
  Array.iter
    (fun node ->
      Alcotest.(check bool) "no violation" false (Node.safety_violation node))
    net.nodes

let test_hotstuff_bi_is_three_views () =
  (* In the happy path a block commits exactly when the QC two views later
     forms: trigger_view - view + 1 = 3. Checked via commit order: block
     at height h commits when height h+2 certifies. *)
  let net = make_net () in
  start net;
  settle net;
  let c0 = committed_of net 0 in
  Alcotest.(check bool) "some commits" true (List.length c0 > 2);
  List.iteri
    (fun i (b : Block.t) ->
      Alcotest.(check int) "committed in height order" (i + 1) b.height)
    c0

let test_silent_leader_stalls_until_timeout () =
  let config = { Config.default with byz_no = 1; strategy = Config.Silence } in
  (* Static leader 0 is Byzantine-silent: nothing can ever be proposed. *)
  let config = { config with election = Config.Static 0 } in
  let net = make_net ~config () in
  start net;
  settle net;
  Alcotest.(check int) "no proposals" 0 (List.length net.proposed);
  (* All nodes time out of view 1; the TC advances everyone to view 2. *)
  fire_timers net;
  Array.iter
    (fun node -> Alcotest.(check int) "advanced via TC" 2 (Node.current_view node))
    net.nodes

let test_rejoin_after_timeout_rotation () =
  let config =
    { Config.default with byz_no = 1; strategy = Config.Silence }
  in
  let net = make_net ~config () in
  start net;
  settle net;
  (* Rotation: view 1 leader is replica 1 (honest) so progress happens
     immediately; replica 0's silent views only delay, never halt. *)
  fire_timers net;
  settle net;
  fire_timers net;
  settle net;
  Alcotest.(check bool) "chain grows despite silent replica" true
    (List.length net.committed > 0);
  Array.iter
    (fun node ->
      Alcotest.(check bool) "no violation" false (Node.safety_violation node))
    net.nodes

let test_out_of_order_proposal_buffered () =
  let config = Config.default in
  let registry = Bamboo_crypto.Sig.setup ~n:4 ~master:"t" in
  let node = Node.create ~config ~self:3 ~registry () in
  ignore (Node.start node);
  let reg = registry in
  let b1 = Helpers.child ~reg ~view:1 ~proposer:1 Block.genesis in
  let b2 = Helpers.child ~reg ~view:2 ~proposer:2 b1 in
  (* Deliver the child first: parent missing, must be buffered not lost. *)
  ignore (Node.handle node (Receive (Message.Proposal { block = b2; tc = None })));
  Alcotest.(check bool) "b2 not yet known" false
    (Bamboo_forest.Forest.mem (Node.forest node) b2.hash);
  let outs =
    Node.handle node (Receive (Message.Proposal { block = b1; tc = None }))
  in
  Alcotest.(check bool) "b1 known" true
    (Bamboo_forest.Forest.mem (Node.forest node) b1.hash);
  Alcotest.(check bool) "b2 unblocked" true
    (Bamboo_forest.Forest.mem (Node.forest node) b2.hash);
  (* The node voted for both blocks as they became valid: b1's vote goes to
     the leader of view 2, b2's vote targets this node itself (leader of
     view 3) and is absorbed internally. *)
  let voted =
    List.filter (function Node.Voted _ -> true | _ -> false) outs
  in
  Alcotest.(check int) "two votes cast" 2 (List.length voted);
  let sent =
    List.filter
      (function Node.Send { msg = Message.Vote _; _ } -> true | _ -> false)
      outs
  in
  Alcotest.(check int) "one vote on the wire" 1 (List.length sent)

let test_wrong_leader_proposal_rejected () =
  let config = Config.default in
  let registry = Bamboo_crypto.Sig.setup ~n:4 ~master:"t" in
  let node = Node.create ~config ~self:3 ~registry () in
  ignore (Node.start node);
  (* view 1's leader under rotation is replica 1; proposer 2 is invalid. *)
  let bad = Helpers.child ~reg:registry ~view:1 ~proposer:2 Block.genesis in
  ignore (Node.handle node (Receive (Message.Proposal { block = bad; tc = None })));
  Alcotest.(check bool) "rejected" false
    (Bamboo_forest.Forest.mem (Node.forest node) bad.hash)

let test_submit_and_rejection_accounting () =
  let config = { Config.default with memsize = 5 } in
  let registry = Bamboo_crypto.Sig.setup ~n:4 ~master:"t" in
  let node = Node.create ~config ~self:0 ~registry () in
  ignore (Node.start node);
  ignore (Node.handle node (Submit (Helpers.txs 8)));
  Alcotest.(check int) "pool capped" 5 (Node.mempool_size node);
  Alcotest.(check int) "rejections counted" 3 (Node.rejected_txs node)

let test_introspection () =
  let config = { Config.default with byz_no = 1; strategy = Config.Silence } in
  let registry = Bamboo_crypto.Sig.setup ~n:4 ~master:"t" in
  let byz = Node.create ~config ~self:0 ~registry () in
  let honest = Node.create ~config ~self:1 ~registry () in
  Alcotest.(check bool) "byzantine flag" true (Node.is_byzantine byz);
  Alcotest.(check bool) "honest flag" false (Node.is_byzantine honest);
  Alcotest.(check string) "name" "hotstuff+silence" (Node.protocol_name byz);
  Alcotest.(check int) "self" 1 (Node.self honest);
  Alcotest.(check int) "view" 1 (Node.current_view honest);
  Alcotest.(check int) "committed" 0 (Node.committed_count honest);
  Alcotest.(check int) "initial hQC" 0 (Node.high_qc honest).Qc.view;
  Alcotest.(check bool) "no lock" true (Node.locked honest = None)

let test_streamlet_cluster_progress () =
  let config = { Config.default with protocol = Config.Streamlet } in
  let net = make_net ~config () in
  start net;
  settle net;
  submit net ~replica:0 (Helpers.txs 5);
  settle net;
  Alcotest.(check bool) "streamlet commits" true (List.length net.committed > 0);
  Array.iter
    (fun node ->
      Alcotest.(check bool) "no violation" false (Node.safety_violation node))
    net.nodes

let test_block_sync_request_and_reply () =
  let registry = Bamboo_crypto.Sig.setup ~n:4 ~master:"t" in
  let node = Node.create ~config:Config.default ~self:3 ~registry () in
  ignore (Node.start node);
  let b1 = Helpers.child ~reg:registry ~view:1 ~proposer:1 Block.genesis in
  let b2 = Helpers.child ~reg:registry ~view:2 ~proposer:2 b1 in
  (* Deliver only the child: the node must ask b2's proposer for b1. *)
  let outs =
    Node.handle node (Receive (Message.Proposal { block = b2; tc = None }))
  in
  let requests =
    List.filter_map
      (function
        | Node.Send { dst; msg = Message.Request_block { hash; requester } } ->
            Some (dst, hash, requester)
        | _ -> None)
      outs
  in
  Alcotest.(check int) "one request" 1 (List.length requests);
  (match requests with
  | [ (dst, hash, requester) ] ->
      (* The justify QC names b1 before the forest sees the missing
         parent, so the fetch targets one of the QC's voters. *)
      Alcotest.(check int) "asks a certifying voter" 0 dst;
      Alcotest.(check string) "for the missing parent" b1.hash hash;
      Alcotest.(check int) "identifies itself" 3 requester
  | _ -> assert false);
  (* Re-delivering another child of the same parent must not re-request. *)
  let b2' = Helpers.child ~reg:registry ~view:3 ~proposer:3 b1 in
  let outs =
    Node.handle node (Receive (Message.Proposal { block = b2'; tc = None }))
  in
  Alcotest.(check int) "no duplicate request" 0
    (List.length
       (List.filter
          (function
            | Node.Send { msg = Message.Request_block _; _ } -> true
            | _ -> false)
          outs));
  (* A node holding the block answers a request with the proposal. *)
  let holder = Node.create ~config:Config.default ~self:1 ~registry () in
  ignore (Node.start holder);
  ignore (Node.handle holder (Receive (Message.Proposal { block = b1; tc = None })));
  let outs =
    Node.handle holder
      (Receive (Message.Request_block { hash = b1.hash; requester = 3 }))
  in
  (match outs with
  | [ Node.Send { dst = 3; msg = Message.Proposal { block; _ } } ] ->
      Alcotest.(check string) "re-sends the block" b1.hash block.Block.hash
  | _ -> Alcotest.fail "expected a proposal reply");
  (* Unknown hashes and bogus requesters are ignored silently. *)
  Alcotest.(check int) "unknown hash ignored" 0
    (List.length
       (Node.handle holder
          (Receive
             (Message.Request_block { hash = String.make 32 'z'; requester = 3 }))));
  Alcotest.(check int) "bad requester ignored" 0
    (List.length
       (Node.handle holder
          (Receive (Message.Request_block { hash = b1.hash; requester = 9 }))))

let test_blind_qc_defers_proposal () =
  (* Votes are small and can overtake the block broadcast: if the next
     leader assembles a QC for a block it has not received, it must defer
     its proposal until the block arrives instead of forking from a stale
     parent. *)
  let registry = Bamboo_crypto.Sig.setup ~n:4 ~master:"t" in
  let node = Node.create ~config:Config.default ~self:2 ~registry () in
  ignore (Node.start node);
  (* replica 2 leads view 2; feed it a vote quorum for an unseen view-1
     block. *)
  let b1 = Helpers.child ~reg:registry ~view:1 ~proposer:1 Block.genesis in
  let outs =
    List.concat_map
      (fun voter ->
        Node.handle node
          (Receive (Message.Vote (Helpers.vote_for registry ~voter b1))))
      [ 0; 1; 3 ]
  in
  Alcotest.(check int) "advanced to view 2 on the QC" 2 (Node.current_view node);
  let proposals =
    List.filter (function Node.Broadcast (Message.Proposal _) -> true | _ -> false) outs
  in
  Alcotest.(check int) "no blind proposal" 0 (List.length proposals);
  (* The block arrives late: now the proposal fires, extending it. *)
  let outs =
    Node.handle node (Receive (Message.Proposal { block = b1; tc = None }))
  in
  let proposal_parent =
    List.find_map
      (function
        | Node.Broadcast (Message.Proposal { block; _ }) -> Some block.Block.parent
        | _ -> None)
      outs
  in
  Alcotest.(check (option string)) "proposes on the certified block"
    (Some b1.hash) proposal_parent

let test_invalid_create () =
  let registry = Bamboo_crypto.Sig.setup ~n:4 ~master:"t" in
  (match Node.create ~config:Config.default ~self:4 ~registry () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "self out of range accepted");
  let bad = { Config.default with n = 0 } in
  match Node.create ~config:bad ~self:0 ~registry () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "invalid config accepted"

(* The QC-verification cache must key on the certificate's full content:
   a verified QC is a cache hit, while any tampered variant — same view,
   different block or borrowed signatures — misses the cache and is
   verified (and rejected) from scratch. *)
let test_qc_cache_rejects_tampered () =
  let registry = Helpers.registry () in
  let node = Node.create ~config:Config.default ~self:0 ~registry () in
  let b = Helpers.child ~reg:registry ~view:1 Block.genesis in
  let qc = Helpers.qc_for registry b in
  Alcotest.(check bool) "valid QC verifies" true (Node.verify_qc node qc);
  Alcotest.(check bool) "cached QC verifies" true (Node.verify_qc node qc);
  let other = Helpers.child ~reg:registry ~proposer:1 ~view:1 Block.genesis in
  let forged = { qc with Bamboo_types.Qc.block = other.Block.hash } in
  Alcotest.(check bool) "same view, swapped block rejected" false
    (Node.verify_qc node forged);
  let borrowed =
    { (Helpers.qc_for registry other) with Bamboo_types.Qc.sigs = qc.sigs }
  in
  Alcotest.(check bool) "borrowed signatures rejected" false
    (Node.verify_qc node borrowed);
  Alcotest.(check bool) "original still verifies" true (Node.verify_qc node qc);
  Alcotest.(check bool) "genesis always verifies" true
    (Node.verify_qc node (Qc.genesis ~block:Block.genesis_hash));
  let unchecked =
    Node.create ~config:Config.default ~self:1 ~registry ~verify_sigs:false ()
  in
  Alcotest.(check bool) "verification disabled accepts" true
    (Node.verify_qc unchecked forged)

(* The cache holds the certificates of the views since the last commit,
   not one per certified block for the whole run; a dropped one still
   verifies, anew. *)
let test_qc_cache_bounded_by_commits () =
  let net = make_net () in
  start net;
  settle net;
  let node = net.nodes.(0) in
  let committed = Node.committed_count node in
  if committed < 100 then Alcotest.failf "only %d blocks committed" committed;
  let cached = Node.verified_qcs node in
  if cached > 8 then
    Alcotest.failf "%d certificates cached after %d commits" cached committed;
  match committed_of net 1 with
  | b :: _ ->
      let registry = Bamboo_crypto.Sig.setup ~n:4 ~master:"t" in
      Alcotest.(check bool) "an old certificate verifies anew" true
        (Node.verify_qc node (Helpers.qc_for registry b))
  | [] -> Alcotest.fail "nothing committed"

(* The runtimes ask [seen_before] on every delivery; for a proposal or a
   vote already handled it must answer without building a key string. *)
let test_seen_before_alloc () =
  let registry = Helpers.registry () in
  let node = Node.create ~config:Config.default ~self:1 ~registry () in
  let b = Helpers.child ~reg:registry ~proposer:1 ~view:1 Block.genesis in
  let proposal = Message.Proposal { block = b; tc = None } in
  let vote = Message.Vote (Helpers.vote_for registry ~voter:2 b) in
  List.iter
    (fun msg ->
      Alcotest.(check bool) "unseen" false (Node.seen_before node msg);
      ignore (Node.handle node (Node.Receive msg) : Node.output list);
      Alcotest.(check bool) "seen" true (Node.seen_before node msg))
    [ proposal; vote ];
  Helpers.check_no_alloc "seen_before on a proposal" (fun _ ->
      if not (Node.seen_before node proposal) then Alcotest.fail "proposal");
  Helpers.check_no_alloc "seen_before on a vote" (fun _ ->
      if not (Node.seen_before node vote) then Alcotest.fail "vote")

let suite =
  [
    Alcotest.test_case "start: leader proposes" `Quick test_start_leader_proposes;
    Alcotest.test_case "empty blocks commit" `Quick test_empty_blocks_commit;
    Alcotest.test_case "committed prefix consistency" `Quick
      test_committed_prefix_consistency;
    Alcotest.test_case "txs flow into blocks" `Quick test_txs_flow_into_blocks;
    Alcotest.test_case "no safety violation" `Quick test_no_safety_violation;
    Alcotest.test_case "commit order by height" `Quick test_hotstuff_bi_is_three_views;
    Alcotest.test_case "silent static leader stalls" `Quick
      test_silent_leader_stalls_until_timeout;
    Alcotest.test_case "progress despite silent replica" `Quick
      test_rejoin_after_timeout_rotation;
    Alcotest.test_case "out-of-order proposals buffered" `Quick
      test_out_of_order_proposal_buffered;
    Alcotest.test_case "wrong leader rejected" `Quick
      test_wrong_leader_proposal_rejected;
    Alcotest.test_case "mempool rejection accounting" `Quick
      test_submit_and_rejection_accounting;
    Alcotest.test_case "introspection" `Quick test_introspection;
    Alcotest.test_case "streamlet cluster" `Quick test_streamlet_cluster_progress;
    Alcotest.test_case "block sync request/reply" `Quick
      test_block_sync_request_and_reply;
    Alcotest.test_case "blind QC defers proposal" `Quick
      test_blind_qc_defers_proposal;
    Alcotest.test_case "invalid create" `Quick test_invalid_create;
    Alcotest.test_case "seen_before allocates nothing" `Quick test_seen_before_alloc;
    Alcotest.test_case "QC cache bounded by commits" `Quick
      test_qc_cache_bounded_by_commits;
    Alcotest.test_case "QC cache rejects tampered certificates" `Quick
      test_qc_cache_rejects_tampered;
  ]
