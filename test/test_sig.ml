module Sig = Bamboo_crypto.Sig

let test_sign_verify () =
  let reg = Sig.setup ~n:4 ~master:"m" in
  let s = Sig.sign reg ~signer:2 "payload" in
  Alcotest.(check int) "signer recorded" 2 s.Sig.signer;
  Alcotest.(check bool) "verifies" true (Sig.verify reg s "payload");
  Alcotest.(check bool) "wrong payload" false (Sig.verify reg s "other")

let test_signer_binding () =
  let reg = Sig.setup ~n:4 ~master:"m" in
  let s = Sig.sign reg ~signer:1 "p" in
  let forged = Sig.of_tag ~signer:2 (Sig.tag s) in
  Alcotest.(check bool) "tag bound to signer" false (Sig.verify reg forged "p")

let test_out_of_range () =
  let reg = Sig.setup ~n:4 ~master:"m" in
  Alcotest.check_raises "sign out of range"
    (Invalid_argument "Sig.sign: signer out of range") (fun () ->
      ignore (Sig.sign reg ~signer:4 "p"));
  let s = Sig.sign reg ~signer:0 "p" in
  Alcotest.(check bool) "verify out of range is false" false
    (Sig.verify reg (Sig.of_tag ~signer:(-1) (Sig.tag s)) "p")

let test_distinct_masters () =
  let a = Sig.setup ~n:4 ~master:"alpha" in
  let b = Sig.setup ~n:4 ~master:"beta" in
  let s = Sig.sign a ~signer:0 "p" in
  Alcotest.(check bool) "cross-registry fails" false (Sig.verify b s "p")

let test_size () =
  let reg = Sig.setup ~n:7 ~master:"m" in
  Alcotest.(check int) "size" 7 (Sig.size reg);
  Alcotest.(check int) "wire size" 64 Sig.wire_size

let test_deterministic () =
  let a = Sig.setup ~n:4 ~master:"m" in
  let b = Sig.setup ~n:4 ~master:"m" in
  let sa = Sig.sign a ~signer:3 "p" and sb = Sig.sign b ~signer:3 "p" in
  Alcotest.(check string) "same tag from same master" (Sig.tag sa) (Sig.tag sb)

let test_pinned_tag () =
  (* Pins the key derivation (master -> per-replica key) and the MAC. *)
  let reg = Sig.setup ~n:4 ~master:"test-master" in
  let s = Sig.sign reg ~signer:2 "vote|7|block-hash" in
  Alcotest.(check string) "tag"
    "034150628a2754c35d4036dd407b866cb595d715360a2800a88761aec8d8e3c6"
    (Bamboo_crypto.Sha256.hex (Sig.tag s))

(* Two domains sign through one registry, as replica threads and Pool
   workers do, and both read the tags of the same unread signatures, so
   their first reads race to compute and publish each tag. The prepared
   key states they share are only read. *)
let test_shared_registry_across_domains () =
  let n = 4 and rounds = 200 in
  let payload i = "payload-" ^ string_of_int i in
  let sign_all reg =
    Array.init (n * rounds) (fun i -> Sig.sign reg ~signer:(i mod n) (payload i))
  in
  let expected = Array.map Sig.tag (sign_all (Sig.setup ~n ~master:"m")) in
  let reg = Sig.setup ~n ~master:"m" in
  let shared = sign_all reg in
  let ready = Atomic.make 0 in
  let work () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    let first_reads = Array.map Sig.tag shared in
    (first_reads, Array.map Sig.tag (sign_all reg))
  in
  let d1 = Domain.spawn work in
  let d2 = Domain.spawn work in
  let r1, t1 = Domain.join d1 and r2, t2 = Domain.join d2 in
  Alcotest.(check (array string)) "domain 1 shared tags" expected r1;
  Alcotest.(check (array string)) "domain 2 shared tags" expected r2;
  Alcotest.(check (array string)) "domain 1 tags" expected t1;
  Alcotest.(check (array string)) "domain 2 tags" expected t2;
  Alcotest.(check (array string)) "published tags" expected
    (Array.map Sig.tag shared);
  Alcotest.(check int) "signs counted exactly" (3 * n * rounds) (Sig.signs reg);
  Array.iteri
    (fun i tag ->
      Alcotest.(check bool) "verifies" true
        (Sig.verify reg (Sig.of_tag ~signer:(i mod n) tag) (payload i)))
    t1

let test_invalid_setup () =
  Alcotest.check_raises "n = 0" (Invalid_argument "Sig.setup: n must be positive")
    (fun () -> ignore (Sig.setup ~n:0 ~master:"m"))

let suite =
  [
    Alcotest.test_case "sign/verify" `Quick test_sign_verify;
    Alcotest.test_case "signer binding" `Quick test_signer_binding;
    Alcotest.test_case "out of range" `Quick test_out_of_range;
    Alcotest.test_case "distinct masters" `Quick test_distinct_masters;
    Alcotest.test_case "sizes" `Quick test_size;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "invalid setup" `Quick test_invalid_setup;
    Alcotest.test_case "pinned tag" `Quick test_pinned_tag;
    Alcotest.test_case "shared registry across domains" `Quick
      test_shared_registry_across_domains;
  ]
