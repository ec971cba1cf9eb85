module Sha256 = Bamboo_crypto.Sha256

(* NIST / well-known vectors. *)
let vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "The quick brown fox jumps over the lazy dog",
      "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592" );
    ( String.make 1000000 'a',
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" );
  ]

let test_vectors () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "digest of %d bytes" (String.length input))
        expected (Sha256.digest_hex input))
    vectors

let test_incremental_equals_oneshot () =
  let msg = "hello, chained BFT world! " ^ String.make 200 'x' in
  let ctx = Sha256.init () in
  Sha256.feed ctx (String.sub msg 0 10);
  Sha256.feed ctx (String.sub msg 10 1);
  Sha256.feed ctx (String.sub msg 11 (String.length msg - 11));
  Alcotest.(check string) "same digest" (Sha256.digest msg) (Sha256.finalize ctx)

let test_feed_sub () =
  let msg = "0123456789" in
  let ctx = Sha256.init () in
  Sha256.feed_sub ctx msg ~pos:2 ~len:5;
  Alcotest.(check string) "substring digest" (Sha256.digest "23456")
    (Sha256.finalize ctx)

let test_feed_sub_bounds () =
  let ctx = Sha256.init () in
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Sha256.feed_sub: range out of bounds") (fun () ->
      Sha256.feed_sub ctx "abc" ~pos:1 ~len:5)

let test_block_boundaries () =
  (* Lengths around the 64-byte block and 56-byte padding boundaries. *)
  List.iter
    (fun len ->
      let msg = String.init len (fun i -> Char.chr (i mod 256)) in
      let ctx = Sha256.init () in
      String.iter (fun c -> Sha256.feed ctx (String.make 1 c)) msg;
      Alcotest.(check string)
        (Printf.sprintf "len %d byte-by-byte" len)
        (Sha256.digest_hex msg)
        (Sha256.hex (Sha256.finalize ctx)))
    [ 0; 1; 55; 56; 57; 63; 64; 65; 119; 120; 127; 128; 129 ]

let test_digest_size () =
  Alcotest.(check int) "32 bytes" 32 (String.length (Sha256.digest "x"))

let test_hex () =
  Alcotest.(check string) "hex" "00ff10" (Sha256.hex "\x00\xff\x10")

(* [feed_int] and [feed_char] must absorb exactly the bytes of the string
   they stand for, whatever the buffer fill they start at: digits that fit
   the block and digits that straddle its end take different paths. *)
let test_feed_int_and_char () =
  List.iter
    (fun n ->
      for fill = 0 to 63 do
        let prefix = String.make fill 'p' in
        let a = Sha256.init () and b = Sha256.init () in
        Sha256.feed a prefix;
        Sha256.feed b prefix;
        Sha256.feed_int a n;
        Sha256.feed b (string_of_int n);
        Sha256.feed_char a ',';
        Sha256.feed b ",";
        Alcotest.(check string)
          (Printf.sprintf "%d at fill %d" n fill)
          (Sha256.hex (Sha256.finalize b))
          (Sha256.hex (Sha256.finalize a))
      done)
    [ 0; 9; 10; -1; -10; max_int; min_int ]

let incremental_prop =
  let open QCheck in
  let gen =
    Gen.pair
      (Gen.string_size ~gen:Gen.char (Gen.int_range 0 300))
      (Gen.int_range 0 300)
  in
  Test.make ~name:"random split incremental = one-shot" ~count:200
    (make ~print:(fun (s, i) -> Printf.sprintf "%d bytes, split %d" (String.length s) i) gen)
    (fun (s, split) ->
      let split = if String.length s = 0 then 0 else split mod (String.length s + 1) in
      let ctx = Sha256.init () in
      Sha256.feed ctx (String.sub s 0 split);
      Sha256.feed ctx (String.sub s split (String.length s - split));
      Sha256.finalize ctx = Sha256.digest s)

let collision_resistance_smoke =
  let open QCheck in
  let gen = Gen.pair (Gen.string_size ~gen:Gen.char (Gen.int_range 0 64))
      (Gen.string_size ~gen:Gen.char (Gen.int_range 0 64)) in
  Test.make ~name:"distinct inputs hash differently (smoke)" ~count:300
    (make ~print:(fun (a, b) -> Printf.sprintf "%S vs %S" a b) gen)
    (fun (a, b) -> a = b || Sha256.digest a <> Sha256.digest b)

let suite =
  [
    Alcotest.test_case "NIST vectors" `Quick test_vectors;
    Alcotest.test_case "incremental = one-shot" `Quick test_incremental_equals_oneshot;
    Alcotest.test_case "feed_sub" `Quick test_feed_sub;
    Alcotest.test_case "feed_sub bounds" `Quick test_feed_sub_bounds;
    Alcotest.test_case "block boundaries" `Quick test_block_boundaries;
    Alcotest.test_case "digest size" `Quick test_digest_size;
    Alcotest.test_case "hex" `Quick test_hex;
    Alcotest.test_case "feed_int/feed_char = feed" `Quick test_feed_int_and_char;
    QCheck_alcotest.to_alcotest incremental_prop;
    QCheck_alcotest.to_alcotest collision_resistance_smoke;
  ]
