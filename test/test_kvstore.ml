module Kv = Bamboo.Kvstore
open Bamboo_types

let test_put_get_delete () =
  let s = Kv.create () in
  Alcotest.(check bool) "put" true (Kv.apply s (Kv.Put { key = "a"; value = "1" }) = Kv.Stored);
  Alcotest.(check bool) "get" true (Kv.apply s (Kv.Get "a") = Kv.Found "1");
  Alcotest.(check bool) "overwrite" true
    (Kv.apply s (Kv.Put { key = "a"; value = "2" }) = Kv.Stored);
  Alcotest.(check (option string)) "read" (Some "2") (Kv.get s "a");
  Alcotest.(check bool) "delete" true (Kv.apply s (Kv.Delete "a") = Kv.Stored);
  Alcotest.(check bool) "gone" true (Kv.apply s (Kv.Get "a") = Kv.Missing);
  Alcotest.(check bool) "delete missing" true (Kv.apply s (Kv.Delete "a") = Kv.Missing);
  Alcotest.(check int) "size" 0 (Kv.size s)

let test_command_round_trip () =
  List.iter
    (fun cmd ->
      match Kv.decode_command (Kv.encode_command cmd) with
      | Ok back -> Alcotest.(check bool) "round trip" true (cmd = back)
      | Error e -> Alcotest.fail e)
    [
      Kv.Put { key = "k"; value = "v" };
      Kv.Put { key = ""; value = "" };
      Kv.Put { key = "has:colon"; value = "x:y:z" };
      Kv.Put { key = "bin\x00key"; value = String.make 100 '\xff' };
      Kv.Get "some-key";
      Kv.Delete "other";
    ]

let test_decode_errors () =
  List.iter
    (fun s ->
      match Kv.decode_command s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ ""; "P"; "X3:abc"; "P9:ab"; "Pxx:a"; "G1:ab"; "D2:abX" ]

let test_apply_tx () =
  let s = Kv.create () in
  let tx =
    Tx.make_with_data ~client:1 ~seq:1
      ~data:(Kv.encode_command (Kv.Put { key = "k"; value = "v" }))
  in
  Alcotest.(check bool) "applied" true (Kv.apply_tx s tx.Tx.data = Some Kv.Stored);
  Alcotest.(check (option string)) "stored" (Some "v") (Kv.get s "k");
  let filler = Tx.make ~client:1 ~seq:2 ~payload_len:64 in
  Alcotest.(check bool) "filler ignored" true (Kv.apply_tx s filler.Tx.data = None);
  let junk = Tx.make_with_data ~client:1 ~seq:3 ~data:"not-a-command" in
  Alcotest.(check bool) "junk ignored" true (Kv.apply_tx s junk.Tx.data = None)

let test_state_hash () =
  let a = Kv.create () and b = Kv.create () in
  Alcotest.(check string) "empty equal" (Kv.state_hash a) (Kv.state_hash b);
  ignore (Kv.apply a (Kv.Put { key = "x"; value = "1" }));
  ignore (Kv.apply a (Kv.Put { key = "y"; value = "2" }));
  (* insertion order must not matter *)
  ignore (Kv.apply b (Kv.Put { key = "y"; value = "2" }));
  ignore (Kv.apply b (Kv.Put { key = "x"; value = "1" }));
  Alcotest.(check string) "order independent" (Kv.state_hash a) (Kv.state_hash b);
  ignore (Kv.apply b (Kv.Put { key = "x"; value = "9" }));
  Alcotest.(check bool) "divergence detected" true
    (Kv.state_hash a <> Kv.state_hash b)

let command_round_trip_prop =
  let open QCheck in
  let gen =
    Gen.pair (Gen.string_size ~gen:Gen.char (Gen.int_range 0 30))
      (Gen.string_size ~gen:Gen.char (Gen.int_range 0 60))
  in
  Test.make ~name:"arbitrary put commands round trip" ~count:300
    (make ~print:(fun (k, v) -> Printf.sprintf "%S=%S" k v) gen)
    (fun (key, value) ->
      Kv.decode_command (Kv.encode_command (Kv.Put { key; value }))
      = Ok (Kv.Put { key; value }))

let suite =
  [
    Alcotest.test_case "put/get/delete" `Quick test_put_get_delete;
    Alcotest.test_case "command round trip" `Quick test_command_round_trip;
    Alcotest.test_case "decode errors" `Quick test_decode_errors;
    Alcotest.test_case "apply_tx" `Quick test_apply_tx;
    Alcotest.test_case "state hash" `Quick test_state_hash;
    QCheck_alcotest.to_alcotest command_round_trip_prop;
  ]
