(* Transactions, blocks, Merkle roots, QCs, votes, timeouts and TCs. *)

open Bamboo_types
module Sig = Bamboo_crypto.Sig
module Sha256 = Bamboo_crypto.Sha256

let reg = Helpers.registry ()

(* --- transactions --- *)

let test_tx_basics () =
  let t = Tx.make ~client:3 ~seq:7 ~payload_len:128 in
  Alcotest.(check string) "id" "3:7" (Tx.id_to_string t.id);
  Alcotest.(check int) "wire size" (16 + 128) (Tx.wire_size t);
  Alcotest.(check bool) "equal" true (Tx.equal t t);
  Alcotest.(check int) "compare same" 0 (Tx.compare_id t.id t.id);
  Alcotest.(check bool) "ordering" true
    (Tx.compare_id { client = 1; seq = 9 } { client = 2; seq = 0 } < 0)

let test_tx_negative_payload () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Tx.make: negative payload length") (fun () ->
      ignore (Tx.make ~client:0 ~seq:0 ~payload_len:(-1)))

let test_tx_with_data () =
  let t = Tx.make_with_data ~client:1 ~seq:2 ~data:"P1:kv" in
  Alcotest.(check int) "payload length = data length" 5 t.payload_len;
  Alcotest.(check int) "wire size includes data" (16 + 5) (Tx.wire_size t);
  let plain = Tx.make ~client:1 ~seq:2 ~payload_len:5 in
  Alcotest.(check bool) "data distinguishes txs" false (Tx.equal t plain)

let test_merkle_commits_to_data () =
  let a = [ Tx.make_with_data ~client:0 ~seq:0 ~data:"aaaa" ] in
  let b = [ Tx.make_with_data ~client:0 ~seq:0 ~data:"bbbb" ] in
  Alcotest.(check bool) "same id, different data, different root" true
    (Block.merkle_root a <> Block.merkle_root b)

(* --- merkle root --- *)

let test_merkle_empty () =
  Alcotest.(check string) "empty = H(\"\")" (Sha256.digest "")
    (Block.merkle_root [])

let leaf (t : Tx.t) = Sha256.digest (Tx.id_to_string t.id ^ "|" ^ t.data)

let test_merkle_single () =
  let t = Helpers.tx 1 in
  Alcotest.(check string) "single leaf" (leaf t) (Block.merkle_root [ t ])

let test_merkle_pair () =
  let a = Helpers.tx 1 and b = Helpers.tx 2 in
  Alcotest.(check string) "pair"
    (Sha256.digest (leaf a ^ leaf b))
    (Block.merkle_root [ a; b ])

let test_merkle_odd_duplicates_last () =
  let l = List.map leaf in
  match l (Helpers.txs 3) with
  | [ la; lb; lc ] ->
      let expected =
        Sha256.digest (Sha256.digest (la ^ lb) ^ Sha256.digest (lc ^ lc))
      in
      Alcotest.(check string) "odd level" expected
        (Block.merkle_root (Helpers.txs 3))
  | _ -> assert false

let test_merkle_order_sensitive () =
  let a = Helpers.txs 4 in
  let b = List.rev a in
  Alcotest.(check bool) "order matters" true
    (Block.merkle_root a <> Block.merkle_root b)

(* --- blocks --- *)

let test_genesis () =
  let g = Block.genesis in
  Alcotest.(check int) "view" 0 g.view;
  Alcotest.(check int) "height" 0 g.height;
  Alcotest.(check bool) "justify is genesis QC" true (Qc.is_genesis g.justify);
  Alcotest.(check string) "hash stable" Block.genesis_hash g.hash

let test_block_create () =
  let b = Helpers.child ~reg ~view:1 Block.genesis in
  Alcotest.(check int) "height" 1 b.height;
  Alcotest.(check string) "parent" Block.genesis_hash b.parent;
  Alcotest.(check int) "justify view" 0 b.justify.view;
  Alcotest.(check int) "hash length" 32 (String.length b.hash)

let test_block_hash_commits_to_fields () =
  let b1 = Helpers.child ~reg ~view:1 Block.genesis in
  let b2 = Helpers.child ~reg ~view:2 Block.genesis in
  Alcotest.(check bool) "view changes hash" true (not (Block.equal b1 b2));
  let with_tx =
    Helpers.child ~reg ~view:1 ~txs:(Helpers.txs 1) Block.genesis
  in
  Alcotest.(check bool) "txs change hash" true (not (Block.equal b1 with_tx));
  let other_proposer = Helpers.child ~reg ~view:1 ~proposer:2 Block.genesis in
  Alcotest.(check bool) "proposer changes hash" true
    (not (Block.equal b1 other_proposer))

let test_flat_vs_merkle_root () =
  let txs = Helpers.txs 5 in
  let m =
    Block.create ~root:`Merkle ~view:1 ~parent:Block.genesis
      ~justify:(Helpers.qc_for reg Block.genesis) ~proposer:0 ~txs ()
  in
  let f =
    Block.create ~root:`Flat ~view:1 ~parent:Block.genesis
      ~justify:(Helpers.qc_for reg Block.genesis) ~proposer:0 ~txs ()
  in
  Alcotest.(check bool) "roots differ" true (m.tx_root <> f.tx_root);
  Alcotest.(check bool) "hashes differ" true (not (Block.equal m f))

let test_block_wire_size_grows () =
  let small = Helpers.child ~reg ~view:1 ~txs:(Helpers.txs 1) Block.genesis in
  let large = Helpers.child ~reg ~view:1 ~txs:(Helpers.txs 100) Block.genesis in
  Alcotest.(check bool) "monotone" true
    (Block.wire_size large > Block.wire_size small)

(* --- QCs --- *)

let test_qc_verify () =
  let b = Helpers.child ~reg ~view:1 Block.genesis in
  let qc = Helpers.qc_for reg b in
  Alcotest.(check bool) "valid" true (Qc.verify reg ~quorum:3 qc);
  Alcotest.(check bool) "higher quorum fails" false (Qc.verify reg ~quorum:4 qc)

let test_qc_duplicate_sigs_dont_count () =
  let b = Helpers.child ~reg ~view:1 Block.genesis in
  let s =
    Sig.sign reg ~signer:0 (Qc.signed_payload ~block:b.hash ~view:b.view)
  in
  let qc = Qc.{ block = b.hash; view = b.view; height = b.height; sigs = [ s; s; s ] } in
  Alcotest.(check bool) "duplicates rejected" false (Qc.verify reg ~quorum:3 qc)

let test_qc_bad_sig () =
  let b = Helpers.child ~reg ~view:1 Block.genesis in
  let good = Helpers.qc_for reg b in
  let bad_sig = Sig.sign reg ~signer:3 "unrelated" in
  let qc = { good with Qc.sigs = bad_sig :: List.tl good.Qc.sigs } in
  Alcotest.(check bool) "invalid share rejected" false (Qc.verify reg ~quorum:3 qc)

let test_qc_genesis () =
  let qc = Qc.genesis ~block:Block.genesis_hash in
  Alcotest.(check bool) "is_genesis" true (Qc.is_genesis qc);
  Alcotest.(check bool) "always verifies" true (Qc.verify reg ~quorum:3 qc)

let test_qc_max_by_view () =
  let a = Qc.genesis ~block:Block.genesis_hash in
  let b = { a with Qc.view = 5 } in
  Alcotest.(check int) "max" 5 (Qc.max_by_view a b).Qc.view;
  Alcotest.(check int) "max sym" 5 (Qc.max_by_view b a).Qc.view

(* --- votes --- *)

let test_vote_verify () =
  let b = Helpers.child ~reg ~view:3 Block.genesis in
  let v = Helpers.vote_for reg ~voter:2 b in
  Alcotest.(check bool) "valid" true (Vote.verify reg v);
  Alcotest.(check bool) "tampered view" false
    (Vote.verify reg { v with Vote.view = 4 });
  Alcotest.(check bool) "tampered voter" false
    (Vote.verify reg { v with Vote.voter = 1 });
  Alcotest.(check bool) "forged signature" false
    (Vote.verify reg { v with signature = { v.signature with tag = "bogus" } })

(* --- timeouts and TCs --- *)

let test_timeout_verify () =
  let high_qc = Qc.genesis ~block:Block.genesis_hash in
  let tm = Timeout_msg.create reg ~sender:1 ~view:4 ~high_qc in
  Alcotest.(check bool) "valid" true (Timeout_msg.verify reg tm);
  Alcotest.(check bool) "tampered" false
    (Timeout_msg.verify reg { tm with Timeout_msg.view = 5 })

let test_tc_assembly () =
  let qc_low = Qc.genesis ~block:Block.genesis_hash in
  let b = Helpers.child ~reg ~view:2 Block.genesis in
  let qc_high = Helpers.qc_for reg b in
  let tms =
    [
      Timeout_msg.create reg ~sender:0 ~view:4 ~high_qc:qc_low;
      Timeout_msg.create reg ~sender:1 ~view:4 ~high_qc:qc_high;
      Timeout_msg.create reg ~sender:2 ~view:4 ~high_qc:qc_low;
    ]
  in
  let tc = Tcert.of_timeouts tms in
  Alcotest.(check int) "view" 4 tc.Tcert.view;
  Alcotest.(check int) "keeps max high_qc" 2 tc.Tcert.high_qc.Qc.view;
  Alcotest.(check bool) "verifies" true (Tcert.verify reg ~quorum:3 tc);
  Alcotest.(check bool) "quorum 4 fails" false (Tcert.verify reg ~quorum:4 tc)

let test_tc_rejects_mixed_views () =
  let high_qc = Qc.genesis ~block:Block.genesis_hash in
  let tms =
    [
      Timeout_msg.create reg ~sender:0 ~view:4 ~high_qc;
      Timeout_msg.create reg ~sender:1 ~view:5 ~high_qc;
    ]
  in
  Alcotest.check_raises "mixed views"
    (Invalid_argument "Tcert.of_timeouts: mixed views") (fun () ->
      ignore (Tcert.of_timeouts tms))

let test_tc_rejects_duplicates () =
  let high_qc = Qc.genesis ~block:Block.genesis_hash in
  let tm = Timeout_msg.create reg ~sender:0 ~view:4 ~high_qc in
  Alcotest.check_raises "duplicate sender"
    (Invalid_argument "Tcert.of_timeouts: duplicate sender") (fun () ->
      ignore (Tcert.of_timeouts [ tm; tm ]))

let test_tc_empty () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Tcert.of_timeouts: empty timeout list") (fun () ->
      ignore (Tcert.of_timeouts []))

(* --- messages --- *)

let test_message_keys_distinct () =
  let b = Helpers.child ~reg ~view:1 Block.genesis in
  let p = Message.Proposal { block = b; tc = None } in
  let v = Message.Vote (Helpers.vote_for reg ~voter:0 b) in
  let v2 = Message.Vote (Helpers.vote_for reg ~voter:1 b) in
  let tm =
    Message.Timeout
      (Timeout_msg.create reg ~sender:0 ~view:1
         ~high_qc:(Qc.genesis ~block:Block.genesis_hash))
  in
  let keys = [ Message.key p; Message.key v; Message.key v2; Message.key tm ] in
  Alcotest.(check int) "all distinct" 4
    (List.length (List.sort_uniq compare keys))

let test_message_view_and_label () =
  let b = Helpers.child ~reg ~view:6 Block.genesis in
  Alcotest.(check int) "proposal view" 6
    (Message.view (Message.Proposal { block = b; tc = None }));
  Alcotest.(check string) "label" "proposal"
    (Message.type_label (Message.Proposal { block = b; tc = None }))

let suite =
  [
    Alcotest.test_case "tx basics" `Quick test_tx_basics;
    Alcotest.test_case "tx negative payload" `Quick test_tx_negative_payload;
    Alcotest.test_case "tx with data" `Quick test_tx_with_data;
    Alcotest.test_case "merkle commits to data" `Quick test_merkle_commits_to_data;
    Alcotest.test_case "merkle empty" `Quick test_merkle_empty;
    Alcotest.test_case "merkle single" `Quick test_merkle_single;
    Alcotest.test_case "merkle pair" `Quick test_merkle_pair;
    Alcotest.test_case "merkle odd" `Quick test_merkle_odd_duplicates_last;
    Alcotest.test_case "merkle order-sensitive" `Quick test_merkle_order_sensitive;
    Alcotest.test_case "genesis" `Quick test_genesis;
    Alcotest.test_case "block create" `Quick test_block_create;
    Alcotest.test_case "hash commits to fields" `Quick test_block_hash_commits_to_fields;
    Alcotest.test_case "flat vs merkle root" `Quick test_flat_vs_merkle_root;
    Alcotest.test_case "wire size monotone" `Quick test_block_wire_size_grows;
    Alcotest.test_case "qc verify" `Quick test_qc_verify;
    Alcotest.test_case "qc duplicate sigs" `Quick test_qc_duplicate_sigs_dont_count;
    Alcotest.test_case "qc bad share" `Quick test_qc_bad_sig;
    Alcotest.test_case "qc genesis" `Quick test_qc_genesis;
    Alcotest.test_case "qc max_by_view" `Quick test_qc_max_by_view;
    Alcotest.test_case "vote verify" `Quick test_vote_verify;
    Alcotest.test_case "timeout verify" `Quick test_timeout_verify;
    Alcotest.test_case "tc assembly" `Quick test_tc_assembly;
    Alcotest.test_case "tc mixed views" `Quick test_tc_rejects_mixed_views;
    Alcotest.test_case "tc duplicate senders" `Quick test_tc_rejects_duplicates;
    Alcotest.test_case "tc empty" `Quick test_tc_empty;
    Alcotest.test_case "message keys" `Quick test_message_keys_distinct;
    Alcotest.test_case "message view/label" `Quick test_message_view_and_label;
  ]
