open Bamboo_types

let reg = Helpers.registry ()

let roundtrip msg =
  let encoded = Codec.encode msg in
  Codec.decode encoded

let check_roundtrip name msg =
  let back = roundtrip msg in
  Alcotest.(check string) name (Message.key msg) (Message.key back);
  (* Structural equality beyond the key: compare re-encoded bytes. *)
  Alcotest.(check string) (name ^ " bytes") (Codec.encode msg) (Codec.encode back)

let test_proposal_roundtrip () =
  let b =
    Helpers.child ~reg ~view:3 ~txs:(Helpers.txs ~client:9 17) Block.genesis
  in
  check_roundtrip "proposal" (Message.Proposal { block = b; tc = None })

let test_proposal_with_tc () =
  let high_qc = Qc.genesis ~block:Block.genesis_hash in
  let tms =
    List.init 3 (fun sender -> Timeout_msg.create reg ~sender ~view:2 ~high_qc)
  in
  let tc = Tcert.of_timeouts tms in
  let b = Helpers.child ~reg ~view:3 Block.genesis in
  check_roundtrip "proposal+tc" (Message.Proposal { block = b; tc = Some tc })

let test_tx_data_roundtrip () =
  let txs =
    [
      Tx.make_with_data ~client:1 ~seq:1 ~data:"P3:key-value";
      Tx.make_with_data ~client:1 ~seq:2 ~data:(String.make 300 '\x00');
    ]
  in
  let b = Helpers.child ~reg ~view:2 ~txs Block.genesis in
  match roundtrip (Message.Proposal { block = b; tc = None }) with
  | Message.Proposal { block = b'; _ } ->
      Alcotest.(check bool) "data survives the wire" true
        (List.equal Tx.equal txs (Body.to_list b'.body))
  | _ -> Alcotest.fail "wrong shape"

let test_vote_roundtrip () =
  let b = Helpers.child ~reg ~view:5 Block.genesis in
  check_roundtrip "vote" (Message.Vote (Helpers.vote_for reg ~voter:3 b))

let test_timeout_roundtrip () =
  let b = Helpers.child ~reg ~view:2 Block.genesis in
  let tm = Timeout_msg.create reg ~sender:1 ~view:7 ~high_qc:(Helpers.qc_for reg b) in
  check_roundtrip "timeout" (Message.Timeout tm)

let test_decoded_block_fields () =
  let txs = Helpers.txs ~client:4 3 in
  let b = Helpers.child ~reg ~view:9 ~proposer:2 ~txs Block.genesis in
  match roundtrip (Message.Proposal { block = b; tc = None }) with
  | Message.Proposal { block = b'; tc = None } ->
      Alcotest.(check int) "view" b.view b'.view;
      Alcotest.(check int) "height" b.height b'.height;
      Alcotest.(check int) "proposer" b.proposer b'.proposer;
      Alcotest.(check string) "hash" b.hash b'.hash;
      Alcotest.(check string) "parent" b.parent b'.parent;
      Alcotest.(check string) "tx_root" b.tx_root b'.tx_root;
      Alcotest.(check int) "tx count" 3 (Body.length b'.body);
      Alcotest.(check bool) "txs preserved" true
        (List.equal Tx.equal txs (Body.to_list b'.body));
      Alcotest.(check int) "justify view" b.justify.Qc.view b'.justify.Qc.view
  | _ -> Alcotest.fail "wrong shape"

let test_decoded_qc_still_verifies () =
  let b = Helpers.child ~reg ~view:2 Block.genesis in
  let tm = Timeout_msg.create reg ~sender:0 ~view:3 ~high_qc:(Helpers.qc_for reg b) in
  match roundtrip (Message.Timeout tm) with
  | Message.Timeout tm' ->
      Alcotest.(check bool) "sig survives" true (Timeout_msg.verify reg tm');
      Alcotest.(check bool) "qc survives" true
        (Qc.verify reg ~quorum:3 tm'.Timeout_msg.high_qc)
  | _ -> Alcotest.fail "wrong shape"

(* A vote's tag is computed on first read; here the encoder is that
   first read. The decoded signature must carry the tag a fresh registry
   from the same master computes, and verify. *)
let test_unread_sig_roundtrip () =
  let b = Helpers.child ~reg ~view:5 Block.genesis in
  let v = Helpers.vote_for reg ~voter:3 b in
  let reference =
    Bamboo_crypto.Sig.tag
      (Bamboo_crypto.Sig.sign (Helpers.registry ()) ~signer:3
         (Qc.signed_payload ~block:b.hash ~view:b.view))
  in
  match roundtrip (Message.Vote v) with
  | Message.Vote v' ->
      Alcotest.(check int) "signer" 3 v'.Vote.signature.Bamboo_crypto.Sig.signer;
      Alcotest.(check string) "reference tag" reference
        (Bamboo_crypto.Sig.tag v'.Vote.signature);
      Alcotest.(check string) "sender's tag" reference
        (Bamboo_crypto.Sig.tag v.Vote.signature);
      Alcotest.(check bool) "verifies" true (Vote.verify reg v')
  | _ -> Alcotest.fail "wrong shape"

let expect_decode_error name s =
  match Codec.decode s with
  | exception Codec.Decode_error _ -> ()
  | _ -> Alcotest.failf "%s: expected Decode_error" name

let test_malformed () =
  expect_decode_error "empty" "";
  expect_decode_error "unknown tag" "\x09rest";
  let b = Helpers.child ~reg ~view:1 Block.genesis in
  let good = Codec.encode (Message.Proposal { block = b; tc = None }) in
  expect_decode_error "truncated" (String.sub good 0 (String.length good / 2));
  expect_decode_error "trailing bytes" (good ^ "x");
  (* Corrupt a length field deep inside. *)
  let corrupted = Bytes.of_string good in
  Bytes.set corrupted 4 '\xff';
  expect_decode_error "corrupt length" (Bytes.to_string corrupted)

(* The wire bytes of one fixed block, as the list-based encoder wrote
   them: a block's body is encoded from its columns in the same order,
   with the same widths. *)
let golden_block_hex =
  "0000000000000020a800bb9e04e56db750b6c21cc7c57fff68f588a10a1ca1ddf7cb40fa0b2d768b"
  ^ "000000000000000700000000000000010000000000000020bc9c6575462f2307eae4481debeb6b"
  ^ "3aebc3f8bd171fada2cdba8588fd227f2b0000000000000020bc9c6575462f2307eae4481debeb6b"
  ^ "3aebc3f8bd171fada2cdba8588fd227f2b0000000000000000000000000000000000000000000000"
  ^ "0000000000000000020000000000000020fdf3c9f5f535f6ed843aa263fdff21f8a7c7171b566a78"
  ^ "71a38ae52c7c54062000000000000000020000000000000001000000000000000200000000000000"
  ^ "03000000000000000000000000000000040000000000000005000000000000000500000000000000"
  ^ "0550313a6b76"

let golden_block () =
  Block.create ~view:7 ~parent:Block.genesis
    ~justify:(Qc.genesis ~block:Block.genesis_hash)
    ~proposer:2
    ~txs:
      [
        Tx.make ~client:1 ~seq:2 ~payload_len:3;
        Tx.make_with_data ~client:4 ~seq:5 ~data:"P1:kv";
      ]
    ()

let test_golden_block_bytes () =
  let buf = Buffer.create 64 in
  Codec.encode_block buf (golden_block ());
  let s = Buffer.contents buf in
  Alcotest.(check int) "length" 285 (String.length s);
  Alcotest.(check string) "bytes" golden_block_hex (Bamboo_crypto.Sha256.hex s);
  let b = Codec.decode_block s ~pos:(ref 0) in
  Alcotest.(check bool) "decodes to the same txs" true
    (List.equal Tx.equal (Body.to_list b.body) (Body.to_list (golden_block ()).body))

(* A block whose count claims 10,000,000 txs with 64 bytes left after it
   is refused on its count, before any column is sized for it. *)
let test_tx_count_bound () =
  let buf = Buffer.create 64 in
  Codec.encode_block buf (Helpers.child ~reg ~view:1 Block.genesis);
  let s = Buffer.contents buf in
  let claim = Bytes.of_string s in
  Bytes.set_int64_be claim (Bytes.length claim - 8) 10_000_000L;
  let frame = Bytes.to_string claim ^ String.make 64 '\x00' in
  let words () =
    let minor, _, major = Gc.counters () in
    minor +. major
  in
  let before = words () in
  (match Codec.decode_block frame ~pos:(ref 0) with
  | exception Codec.Decode_error _ -> ()
  | _ -> Alcotest.fail "accepted a 10M-tx claim");
  let delta = words () -. before in
  if delta > 10_000.0 then Alcotest.failf "decoding allocated %.0f words" delta;
  (* A count the remaining bytes can hold still decodes. *)
  let one = Helpers.child ~reg ~view:1 ~txs:(Helpers.txs 1) Block.genesis in
  let buf = Buffer.create 64 in
  Codec.encode_block buf one;
  let b = Codec.decode_block (Buffer.contents buf) ~pos:(ref 0) in
  Alcotest.(check int) "one tx" 1 (Body.length b.body)

let fuzz_decode_total =
  let open QCheck in
  Test.make ~name:"decode never crashes on random bytes" ~count:500
    (string_gen_of_size (Gen.int_range 0 200) Gen.char)
    (fun s ->
      match Codec.decode s with
      | _ -> true
      | exception Codec.Decode_error _ -> true)

let roundtrip_random_blocks =
  let open QCheck in
  let gen =
    Gen.map2
      (fun view ntxs -> (1 + view, ntxs))
      (Gen.int_range 0 50) (Gen.int_range 0 30)
  in
  Test.make ~name:"random proposals round trip" ~count:100
    (make ~print:(fun (v, n) -> Printf.sprintf "view %d, %d txs" v n) gen)
    (fun (view, ntxs) ->
      let b = Helpers.child ~reg ~view ~txs:(Helpers.txs ntxs) Block.genesis in
      let msg = Message.Proposal { block = b; tc = None } in
      Codec.encode (Codec.decode (Codec.encode msg)) = Codec.encode msg)

let suite =
  [
    Alcotest.test_case "proposal round trip" `Quick test_proposal_roundtrip;
    Alcotest.test_case "proposal with TC" `Quick test_proposal_with_tc;
    Alcotest.test_case "tx data round trip" `Quick test_tx_data_roundtrip;
    Alcotest.test_case "vote round trip" `Quick test_vote_roundtrip;
    Alcotest.test_case "timeout round trip" `Quick test_timeout_roundtrip;
    Alcotest.test_case "decoded block fields" `Quick test_decoded_block_fields;
    Alcotest.test_case "decoded QC verifies" `Quick test_decoded_qc_still_verifies;
    Alcotest.test_case "unread signature round trip" `Quick
      test_unread_sig_roundtrip;
    Alcotest.test_case "malformed input" `Quick test_malformed;
    Alcotest.test_case "golden block bytes" `Quick test_golden_block_bytes;
    Alcotest.test_case "tx count bounded by frame" `Quick test_tx_count_bound;
    QCheck_alcotest.to_alcotest fuzz_decode_total;
    QCheck_alcotest.to_alcotest roundtrip_random_blocks;
  ]
