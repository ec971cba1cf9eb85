module Hmac = Bamboo_crypto.Hmac
module Sha256 = Bamboo_crypto.Sha256

(* RFC 4231 test vectors for HMAC-SHA256. *)
let test_rfc4231_case1 () =
  let key = String.make 20 '\x0b' in
  Alcotest.(check string) "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.mac_hex ~key "Hi There")

let test_rfc4231_case2 () =
  Alcotest.(check string) "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.mac_hex ~key:"Jefe" "what do ya want for nothing?")

let test_rfc4231_case3 () =
  let key = String.make 20 '\xaa' in
  let data = String.make 50 '\xdd' in
  Alcotest.(check string) "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.mac_hex ~key data)

let test_rfc4231_case6_long_key () =
  (* Key longer than the block size must be hashed first. *)
  let key = String.make 131 '\xaa' in
  Alcotest.(check string) "case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.mac_hex ~key "Test Using Larger Than Block-Size Key - Hash Key First")

let test_verify_roundtrip () =
  let key = "secret" in
  let tag = Hmac.mac ~key "message" in
  Alcotest.(check bool) "valid" true (Hmac.verify ~key ~tag "message");
  Alcotest.(check bool) "wrong message" false (Hmac.verify ~key ~tag "messagE");
  Alcotest.(check bool) "wrong key" false
    (Hmac.verify ~key:"other" ~tag "message");
  Alcotest.(check bool) "truncated tag" false
    (Hmac.verify ~key ~tag:(String.sub tag 0 16) "message")

let test_distinct_keys_distinct_macs () =
  let m = "same message" in
  Alcotest.(check bool) "tags differ" true
    (Hmac.mac ~key:"k1" m <> Hmac.mac ~key:"k2" m)

let test_tag_length () =
  Alcotest.(check int) "32 bytes" 32 (String.length (Hmac.mac ~key:"k" "m"))

let test_block_sized_key () =
  (* A key exactly 64 bytes long takes the no-padding path. *)
  let key = String.make 64 'k' in
  let tag = Hmac.mac ~key "m" in
  Alcotest.(check bool) "verifies" true (Hmac.verify ~key ~tag "m")

(* RFC 2104 written out over one-shot digests:
   H((K xor opad) || H((K xor ipad) || m)), with K hashed when longer than
   the 64-byte block and zero-padded to it. *)
let reference ~key msg =
  let key = if String.length key > 64 then Sha256.digest key else key in
  let key = key ^ String.make (64 - String.length key) '\x00' in
  let pad byte = String.map (fun c -> Char.chr (Char.code c lxor byte)) key in
  Sha256.digest (pad 0x5c ^ Sha256.digest (pad 0x36 ^ msg))

let bytes_of_len len = String.init len (fun i -> Char.chr (((i * 31) + len) land 0xff))

(* One prepared key serves every message length in turn, so a MAC that
   disturbed the absorbed pads would fail the later checks. *)
let test_prepared_matches_reference () =
  List.iter
    (fun key_len ->
      let key = bytes_of_len key_len in
      let prepared = Hmac.prepare key in
      List.iter
        (fun msg_len ->
          let msg = bytes_of_len msg_len in
          let expected = Sha256.hex (reference ~key msg) in
          let what = Printf.sprintf "key %d, msg %d" key_len msg_len in
          Alcotest.(check string) ("prepared " ^ what) expected
            (Sha256.hex (Hmac.mac_with prepared msg));
          Alcotest.(check string) ("mac " ^ what) expected
            (Sha256.hex (Hmac.mac ~key msg));
          Alcotest.(check bool) ("verify_with " ^ what) true
            (Hmac.verify_with prepared ~tag:(reference ~key msg) msg))
        [ 0; 1; 55; 56; 63; 64; 65; 119; 120; 1000 ])
    [ 0; 1; 63; 64; 65; 200 ]

let verify_prop =
  let open QCheck in
  let gen =
    Gen.pair
      (Gen.string_size ~gen:Gen.char (Gen.int_range 0 100))
      (Gen.string_size ~gen:Gen.char (Gen.int_range 0 200))
  in
  Test.make ~name:"mac/verify round trip" ~count:300
    (make ~print:(fun (k, m) -> Printf.sprintf "key %d, msg %d" (String.length k) (String.length m)) gen)
    (fun (key, msg) -> Hmac.verify ~key ~tag:(Hmac.mac ~key msg) msg)

let suite =
  [
    Alcotest.test_case "RFC 4231 case 1" `Quick test_rfc4231_case1;
    Alcotest.test_case "RFC 4231 case 2" `Quick test_rfc4231_case2;
    Alcotest.test_case "RFC 4231 case 3" `Quick test_rfc4231_case3;
    Alcotest.test_case "RFC 4231 case 6 (long key)" `Quick test_rfc4231_case6_long_key;
    Alcotest.test_case "verify round trip" `Quick test_verify_roundtrip;
    Alcotest.test_case "distinct keys" `Quick test_distinct_keys_distinct_macs;
    Alcotest.test_case "tag length" `Quick test_tag_length;
    Alcotest.test_case "block-sized key" `Quick test_block_sized_key;
    Alcotest.test_case "prepared key = RFC 2104 reference" `Quick
      test_prepared_matches_reference;
    QCheck_alcotest.to_alcotest verify_prop;
  ]
