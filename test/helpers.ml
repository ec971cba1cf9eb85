(* Shared test fixtures: quick construction of registries, transactions,
   blocks, votes and certified chains. *)

open Bamboo_types
module Sig = Bamboo_crypto.Sig

let registry ?(n = 4) () = Sig.setup ~n ~master:"test-master"

let tx ?(client = 0) ?(payload_len = 0) seq = Tx.make ~client ~seq ~payload_len

let txs ?(client = 0) count = List.init count (fun i -> tx ~client i)

(* A full QC for [block] signed by the first [quorum] replicas. *)
let qc_for ?(n = 4) reg (block : Block.t) =
  let f = (n - 1) / 3 in
  let quorum = (2 * f) + 1 in
  let sigs =
    List.init quorum (fun voter ->
        Sig.sign reg ~signer:voter
          (Qc.signed_payload ~block:block.hash ~view:block.view))
  in
  Qc.{ block = block.hash; view = block.view; height = block.height; sigs }

(* Extend [parent] with a certified-parent block at [view], justified by
   [justify] (defaults to a fresh full QC for the parent). *)
let child ?justify ?(proposer = 0) ?(txs = []) ~reg ~view parent =
  let justify = match justify with Some j -> j | None -> qc_for reg parent in
  Block.create ~view ~parent ~justify ~proposer ~txs ()

(* A linear certified chain of [len] blocks on top of genesis, one view per
   block starting at view 1. Returns blocks lowest-first. *)
let chain ~reg len =
  let rec build acc parent view remaining =
    if remaining = 0 then List.rev acc
    else
      let b = child ~reg ~view parent in
      build (b :: acc) b (view + 1) (remaining - 1)
  in
  build [] Block.genesis 1 len

let vote_for reg ~voter (b : Block.t) =
  Vote.create reg ~voter ~block:b.hash ~view:b.view ~height:b.height

let default_config = Bamboo.Config.default

(* Insert a list of blocks into a forest, asserting success. *)
let add_all forest blocks =
  List.iter
    (fun b ->
      match Bamboo_forest.Forest.add forest b with
      | Bamboo_forest.Forest.Added -> ()
      | Duplicate -> Alcotest.fail "unexpected duplicate"
      | Missing_parent -> Alcotest.fail "unexpected missing parent"
      | Below_prune_horizon -> Alcotest.fail "unexpected pruned add"
      | Bad_height -> Alcotest.fail "unexpected bad height")
    blocks

(* Minor words allocated by [f ()]. Allocation pins run a hot call
   100_000 times and allow 1000 words in total (0.01 word a call), which
   absorbs the loop's own set-up but not one boxed value per call. *)
let alloc_delta f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let check_no_alloc name f =
  let delta =
    alloc_delta (fun () ->
        for i = 0 to 99_999 do
          f i
        done)
  in
  if delta > 1000.0 then
    Alcotest.failf "%s allocated %.0f minor words in 100000 calls" name delta
