(* Transactions, blocks, Merkle roots, QCs, votes, timeouts and TCs. *)

open Bamboo_types
module Sig = Bamboo_crypto.Sig
module Sha256 = Bamboo_crypto.Sha256

let reg = Helpers.registry ()
let root txs = Block.merkle_root (Body.of_list txs)

(* Filler and data-bearing txs alternate. *)
let mixed_txs count =
  List.init count (fun i ->
      if i mod 2 = 0 then Tx.make ~client:(i + 1) ~seq:(i * 100) ~payload_len:8
      else Tx.make_with_data ~client:i ~seq:(-i) ~data:(String.make (i * 13) 'd'))

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
    (root a <> root b)

(* --- packed bodies --- *)

let test_body_columns () =
  let txs = mixed_txs 7 in
  let b = Body.of_list txs in
  Alcotest.(check int) "length" 7 (Body.length b);
  Alcotest.(check bool) "records round trip" true
    (List.equal Tx.equal txs (Body.to_list b));
  Alcotest.(check int) "client" 3 (Body.client b 3);
  Alcotest.(check int) "seq" (-3) (Body.seq b 3);
  Alcotest.(check string) "data" (String.make 39 'd') (Body.data b 3);
  Alcotest.(check int) "payload length" 8 (Body.payload_len b 2);
  Alcotest.(check int) "wire size"
    (List.fold_left (fun acc tx -> acc + Tx.wire_size tx) 0 txs)
    (Body.wire_size b);
  Alcotest.(check int) "empty" 0 (Body.length Body.empty);
  Alcotest.check_raises "past the end" (Invalid_argument "index out of bounds")
    (fun () -> ignore (Body.data (Body.of_list (Helpers.txs 2)) 2 : string))

let test_body_builder () =
  let bld = Body.Builder.create 4 in
  Body.Builder.add_tx bld (Helpers.tx 1);
  Body.Builder.add bld ~client:2 ~seq:5 ~payload_len:3 ~data:"kv!";
  let b = Body.Builder.finish bld in
  Alcotest.(check int) "trimmed to what was added" 2 (Body.length b);
  Alcotest.(check string) "data before the first payload" "" (Body.data b 0);
  Alcotest.(check string) "data" "kv!" (Body.data b 1);
  let full = Body.Builder.create 1 in
  Body.Builder.add_tx full (Helpers.tx 1);
  Alcotest.check_raises "full" (Invalid_argument "Body.Builder.add: full")
    (fun () -> Body.Builder.add_tx full (Helpers.tx 2))

(* A body whose payload lengths are all equal keeps one length, not a
   column: 2 words a tx for client and seq. One differing length brings
   the column back. *)
let test_body_uniform_length () =
  let n = 400 in
  let uniform = List.init n (fun i -> Tx.make ~client:1 ~seq:i ~payload_len:128) in
  let words txs = Obj.reachable_words (Obj.repr (Body.of_list txs)) in
  let w = words uniform in
  if w > (2 * n) + 16 then
    Alcotest.failf "a uniform %d-tx body holds %d words (bound %d)" n w
      ((2 * n) + 16);
  let mixed =
    List.mapi
      (fun i (t : Tx.t) -> if i = n - 1 then { t with payload_len = 7 } else t)
      uniform
  in
  let w = words mixed in
  if w < 3 * n then
    Alcotest.failf "a %d-tx body of two lengths holds only %d words" n w

(* The first differing length may come at the start, in the middle or
   last; every read must see the lengths of the records packed. *)
let test_body_differing_length () =
  let n = 9 in
  List.iter
    (fun at ->
      let txs =
        List.init n (fun i ->
            Tx.make ~client:2 ~seq:i ~payload_len:(if i = at then 3 else 40))
      in
      let b = Body.of_list txs in
      let name what = Printf.sprintf "%s, differing at %d" what at in
      List.iteri
        (fun i (t : Tx.t) ->
          Alcotest.(check int) (name "payload_len") t.payload_len
            (Body.payload_len b i);
          Alcotest.(check bool) (name "tx") true (Tx.equal t (Body.tx b i)))
        txs;
      Alcotest.(check int) (name "wire size")
        (List.fold_left (fun acc tx -> acc + Tx.wire_size tx) 0 txs)
        (Body.wire_size b);
      Alcotest.(check bool) (name "to_list") true
        (List.equal Tx.equal txs (Body.to_list b)))
    [ 0; n / 2; n - 1 ];
  let b = Body.of_list (Helpers.txs 2) in
  Alcotest.(check int) "uniform wire size" 32 (Body.wire_size b);
  Alcotest.check_raises "uniform length past the end"
    (Invalid_argument "index out of bounds") (fun () ->
      ignore (Body.payload_len b 2 : int))

(* --- merkle root --- *)

let test_merkle_empty () =
  Alcotest.(check string) "empty = H(\"\")" (Sha256.digest "")
    (root [])

let leaf (t : Tx.t) = Sha256.digest (Tx.id_to_string t.id ^ "|" ^ t.data)

let test_merkle_single () =
  let t = Helpers.tx 1 in
  Alcotest.(check string) "single leaf" (leaf t) (root [ t ])

let test_merkle_pair () =
  let a = Helpers.tx 1 and b = Helpers.tx 2 in
  Alcotest.(check string) "pair"
    (Sha256.digest (leaf a ^ leaf b))
    (root [ a; b ])

let test_merkle_odd_duplicates_last () =
  let l = List.map leaf in
  match l (Helpers.txs 3) with
  | [ la; lb; lc ] ->
      let expected =
        Sha256.digest (Sha256.digest (la ^ lb) ^ Sha256.digest (lc ^ lc))
      in
      Alcotest.(check string) "odd level" expected
        (root (Helpers.txs 3))
  | _ -> assert false

(* The tree written out over concatenated strings, as a reference for the
   streaming implementation. *)
let reference_merkle_root txs =
  let rec level = function
    | [ root ] -> root
    | nodes ->
        let rec pair = function
          | [] -> []
          | [ last ] -> [ Sha256.digest (last ^ last) ]
          | a :: b :: rest -> Sha256.digest (a ^ b) :: pair rest
        in
        level (pair nodes)
  in
  if txs = [] then Sha256.digest "" else level (List.map leaf txs)

(* The same txs as a proposer packs them: added to a pool and batched. *)
let batched txs =
  let p = Bamboo_mempool.Mempool.create () in
  List.iter (fun tx -> ignore (Bamboo_mempool.Mempool.add p tx : bool)) txs;
  Bamboo_mempool.Mempool.batch p ~max:(List.length txs)

(* Bodies packed from a list for 0..9 leaves, and one packed by
   [Mempool.batch]. *)
let reference_inputs () =
  List.init 10 (fun count ->
      let txs = mixed_txs count in
      (Printf.sprintf "%d leaves" count, txs, Body.of_list txs))
  @ [ (let txs = mixed_txs 13 in ("13 leaves, batched", txs, batched txs)) ]

let test_merkle_matches_reference () =
  List.iter
    (fun (name, txs, body) ->
      Alcotest.(check string) name
        (Sha256.hex (reference_merkle_root txs))
        (Sha256.hex (Block.merkle_root body)))
    (reference_inputs ())

(* The flat root written out as one concatenated preimage: every leaf
   followed by a comma. *)
let reference_flat_root txs =
  Sha256.digest
    (String.concat ""
       (List.map (fun (t : Tx.t) -> Tx.id_to_string t.id ^ "|" ^ t.data ^ ",") txs))

let test_flat_matches_reference () =
  List.iter
    (fun (name, txs, body) ->
      let b =
        Block.of_body ~root:`Flat ~view:1 ~parent:Block.genesis
          ~justify:(Helpers.qc_for reg Block.genesis) ~proposer:0 body
      in
      Alcotest.(check string) name
        (Sha256.hex (reference_flat_root txs))
        (Sha256.hex b.tx_root))
    (reference_inputs ())

(* The flat root fed one leaf at a time, each leaf's preimage built as a
   string: a reference for the record writes [Block.flat_root] makes
   straight into the hash's block. *)
let per_leaf_flat_root txs =
  let ctx = Sha256.init () in
  List.iter
    (fun (t : Tx.t) ->
      Sha256.feed ctx
        (Printf.sprintf "%d:%d|%s," t.id.client t.id.seq t.data))
    txs;
  Sha256.finalize ctx

(* Ids at the ends of the int range, payloads of 0, 1, 21, 22, 64 and 100
   bytes, and prefixes of 0 to 63 short leaves before them, so that each
   kind of leaf starts at every offset of a 64-byte block and some
   straddle its end. *)
let test_flat_matches_per_leaf () =
  let odd =
    [
      Tx.make ~client:0 ~seq:0 ~payload_len:0;
      Tx.make ~client:(-1) ~seq:(-12345) ~payload_len:0;
      Tx.make ~client:max_int ~seq:max_int ~payload_len:0;
      Tx.make ~client:min_int ~seq:0 ~payload_len:0;
      Tx.make_with_data ~client:7 ~seq:(-3) ~data:"p";
      Tx.make_with_data ~client:(-8) ~seq:max_int ~data:(String.make 21 'a');
      Tx.make_with_data ~client:max_int ~seq:min_int ~data:(String.make 22 'b');
      Tx.make_with_data ~client:0 ~seq:99 ~data:(String.make 64 'c');
      Tx.make_with_data ~client:5 ~seq:0 ~data:(String.init 100 Char.chr);
      Tx.make ~client:3 ~seq:123456 ~payload_len:0;
    ]
  in
  for k = 0 to 63 do
    let txs = List.init k (fun i -> Tx.make ~client:(i mod 3) ~seq:i ~payload_len:0) @ odd in
    let b =
      Block.of_body ~root:`Flat ~view:1 ~parent:Block.genesis
        ~justify:(Helpers.qc_for reg Block.genesis) ~proposer:0 (Body.of_list txs)
    in
    Alcotest.(check string)
      (Printf.sprintf "%d short leaves first" k)
      (Sha256.hex (per_leaf_flat_root txs))
      (Sha256.hex b.tx_root)
  done

let test_merkle_order_sensitive () =
  let a = Helpers.txs 4 in
  let b = List.rev a in
  Alcotest.(check bool) "order matters" true
    (root a <> root b)

(* --- blocks --- *)

(* A flat root feeds every tx into one context, so [of_body ~root:`Flat]
   allocates a per-call constant (the context, the header preimage, the
   digests) that does not grow with the tx count. *)
let test_flat_root_alloc () =
  let justify = Helpers.qc_for reg Block.genesis in
  let words n =
    let body =
      Body.of_list
        (List.init n (fun i -> Tx.make ~client:(i mod 7) ~seq:(1000 + i) ~payload_len:0))
    in
    let calls = 50 in
    Helpers.alloc_delta (fun () ->
        for _ = 1 to calls do
          ignore
            (Sys.opaque_identity
               (Block.of_body ~root:`Flat ~view:1 ~parent:Block.genesis ~justify
                  ~proposer:0 body))
        done)
    /. float_of_int calls
  in
  let small = words 4 and large = words 400 in
  (* Dev profile: 249 words a call at either size. *)
  if large -. small > 40. || large > 400. then
    Alcotest.failf "of_body ~root:`Flat allocates %.0f words at 400 txs, %.0f at 4"
      large small

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
    (Vote.verify reg
       { v with signature = Bamboo_crypto.Sig.of_tag ~signer:2 "bogus" })

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

(* Byte pins: these strings are signed, hashed or used as de-duplication
   keys, so their exact bytes are part of every run's output. *)
let test_payload_pins () =
  Alcotest.(check string) "qc payload" "vote|12|HASH"
    (Qc.signed_payload ~block:"HASH" ~view:12);
  Alcotest.(check string) "timeout payload" "timeout|7"
    (Timeout_msg.signed_payload ~view:7);
  Alcotest.(check string) "tx id" "3:-4" (Tx.id_to_string { client = 3; seq = -4 })

let test_message_key_pins () =
  let b = { (Helpers.child ~reg ~view:1 Block.genesis) with Block.hash = "HASH" } in
  let v = { (Helpers.vote_for reg ~voter:2 b) with Vote.block = "HASH" } in
  let tm =
    Timeout_msg.create reg ~sender:3 ~view:9
      ~high_qc:(Qc.genesis ~block:Block.genesis_hash)
  in
  Alcotest.(check string) "proposal" "p|HASH"
    (Message.key (Message.Proposal { block = b; tc = None }));
  Alcotest.(check string) "vote" "v|HASH|2" (Message.key (Message.Vote v));
  Alcotest.(check string) "timeout" "t|9|3" (Message.key (Message.Timeout tm));
  Alcotest.(check string) "request" "r|HASH|1"
    (Message.key (Message.Request_block { hash = "HASH"; requester = 1 }))

let test_short_hash () =
  Alcotest.(check string) "8-char prefix" "00ff10ab"
    (Ids.short "\x00\xff\x10\xab\xcd\xef");
  Alcotest.(check string) "short input" "0aff" (Ids.short "\x0a\xff");
  Alcotest.(check string) "genesis prefix"
    (String.sub (Sha256.hex Block.genesis_hash) 0 8)
    (Ids.short Block.genesis_hash)

let test_message_view_and_label () =
  let b = Helpers.child ~reg ~view:6 Block.genesis in
  Alcotest.(check int) "proposal view" 6
    (Message.view (Message.Proposal { block = b; tc = None }));
  Alcotest.(check string) "label" "proposal"
    (Message.type_label (Message.Proposal { block = b; tc = None }))

(* --- de-duplication set --- *)

(* Short keys take the generic string hash; keys with '|' probe the
   injectivity of [Message.key]. *)
let seen_hashes =
  [|
    "";
    "a";
    "a|1";
    "a|1|2";
    "|";
    "abcdefg";
    "abcdefgh";
    "abcdefgh|";
    "abcdefgi";
    Block.genesis_hash;
    (Helpers.child ~reg ~view:1 Block.genesis).hash;
  |]

let seen_msg =
  let b = Helpers.child ~reg ~view:1 Block.genesis in
  let v = Helpers.vote_for reg ~voter:0 b in
  let tm =
    Timeout_msg.create reg ~sender:0 ~view:1
      ~high_qc:(Qc.genesis ~block:Block.genesis_hash)
  in
  fun kind hash id view ->
    match kind with
    | 0 -> Message.Proposal { block = { b with Block.hash = hash; view }; tc = None }
    | 1 -> Message.Vote { v with Vote.block = hash; voter = id; view }
    | 2 -> Message.Timeout { tm with Timeout_msg.view; sender = id }
    | _ -> Message.Request_block { hash; requester = id }

let seen_set_prop =
  let open QCheck in
  let op =
    Gen.(
      quad (int_range 0 3)
        (int_range 0 (Array.length seen_hashes - 1))
        (int_range (-3) 11)
        (pair (int_range (-2) 5) bool))
  in
  let gen = Gen.(pair (int_range 1 9) (list_size (int_range 1 300) op)) in
  Test.make ~name:"de-dup set agrees with a table of Message.key strings"
    ~count:300
    (make ~print:(fun (n, ops) -> Printf.sprintf "n=%d, %d ops" n (List.length ops)) gen)
    (fun (n, ops) ->
      let seen = Seen_tbl.create ~n in
      let reference = Hashtbl.create 16 in
      let step (kind, h, id, (view, adding)) =
        let msg = seen_msg kind seen_hashes.(h) id view in
        let key = Message.key msg in
        let known = Hashtbl.mem reference key in
        let mem_agrees = Bool.equal (Seen_tbl.mem seen msg) known in
        if adding then begin
          if not known then Hashtbl.add reference key ();
          mem_agrees && Bool.equal (Seen_tbl.add seen msg) (not known)
        end
        else mem_agrees
      in
      let steps_agree = List.for_all step ops in
      let reference_keys =
        List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) reference [])
      in
      steps_agree && List.equal String.equal (Seen_tbl.sorted_keys seen) reference_keys)

let test_hash_key () =
  let d = Block.genesis_hash in
  Alcotest.(check int) "digest prefix"
    (Int64.to_int (String.get_int64_le d 0) land max_int)
    (Ids.hash_key d);
  Alcotest.(check bool) "non-negative" true (Ids.hash_key "\xff\xff\xff\xff\xff\xff\xff\xff" >= 0);
  Alcotest.(check int) "short key" (String.hash "abc") (Ids.hash_key "abc");
  let t = Ids.Hash_tbl.create 4 in
  List.iter (fun h -> Ids.Hash_tbl.replace t h (String.length h)) [ "b"; d; "a"; "" ];
  Alcotest.(check (list string)) "sorted keys" [ ""; "a"; "b"; d ]
    (Ids.Hash_tbl.sorted_keys ~compare:String.compare t)

let suite =
  [
    Alcotest.test_case "hash_key and Hash_tbl" `Quick test_hash_key;
    QCheck_alcotest.to_alcotest seen_set_prop;
    Alcotest.test_case "tx basics" `Quick test_tx_basics;
    Alcotest.test_case "tx negative payload" `Quick test_tx_negative_payload;
    Alcotest.test_case "tx with data" `Quick test_tx_with_data;
    Alcotest.test_case "body columns" `Quick test_body_columns;
    Alcotest.test_case "body builder" `Quick test_body_builder;
    Alcotest.test_case "body uniform length" `Quick test_body_uniform_length;
    Alcotest.test_case "body differing length" `Quick test_body_differing_length;
    Alcotest.test_case "merkle commits to data" `Quick test_merkle_commits_to_data;
    Alcotest.test_case "merkle empty" `Quick test_merkle_empty;
    Alcotest.test_case "merkle single" `Quick test_merkle_single;
    Alcotest.test_case "merkle pair" `Quick test_merkle_pair;
    Alcotest.test_case "merkle odd" `Quick test_merkle_odd_duplicates_last;
    Alcotest.test_case "merkle order-sensitive" `Quick test_merkle_order_sensitive;
    Alcotest.test_case "merkle = concatenating reference" `Quick
      test_merkle_matches_reference;
    Alcotest.test_case "flat = concatenating reference" `Quick
      test_flat_matches_reference;
    Alcotest.test_case "flat = per-leaf reference" `Quick test_flat_matches_per_leaf;
    Alcotest.test_case "flat root allocation is constant" `Quick test_flat_root_alloc;
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
    Alcotest.test_case "payload pins" `Quick test_payload_pins;
    Alcotest.test_case "message key pins" `Quick test_message_key_pins;
    Alcotest.test_case "short hash" `Quick test_short_hash;
  ]
