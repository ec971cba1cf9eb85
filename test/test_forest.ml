open Bamboo_types
module Forest = Bamboo_forest.Forest

let reg = Helpers.registry ()

let test_initial_state () =
  let f = Forest.create () in
  Alcotest.(check int) "committed height" 0 (Forest.committed_height f);
  Alcotest.(check int) "committed count" 1 (Forest.committed_count f);
  Alcotest.(check int) "size" 0 (Forest.size f);
  Alcotest.(check bool) "genesis present" true (Forest.mem f Block.genesis_hash)

let test_add_chain () =
  let f = Forest.create () in
  let blocks = Helpers.chain ~reg 3 in
  Helpers.add_all f blocks;
  Alcotest.(check int) "size" 3 (Forest.size f);
  List.iter
    (fun (b : Block.t) ->
      Alcotest.(check bool) "findable" true (Forest.find f b.hash <> None))
    blocks

let test_add_duplicate () =
  let f = Forest.create () in
  let b = Helpers.child ~reg ~view:1 Block.genesis in
  Alcotest.(check bool) "added" true (Forest.add f b = Forest.Added);
  Alcotest.(check bool) "duplicate" true (Forest.add f b = Forest.Duplicate)

let test_add_missing_parent () =
  let f = Forest.create () in
  match Helpers.chain ~reg 2 with
  | [ _b1; b2 ] ->
      Alcotest.(check bool) "missing parent" true
        (Forest.add f b2 = Forest.Missing_parent)
  | _ -> assert false

let test_children_and_parent () =
  let f = Forest.create () in
  let b1 = Helpers.child ~reg ~view:1 Block.genesis in
  let b2a = Helpers.child ~reg ~view:2 b1 in
  let b2b = Helpers.child ~reg ~view:3 b1 in
  Helpers.add_all f [ b1; b2a; b2b ];
  Alcotest.(check int) "two children" 2 (List.length (Forest.children f b1.hash));
  (match Forest.parent f b2a with
  | Some p -> Alcotest.(check bool) "parent" true (Block.equal p b1)
  | None -> Alcotest.fail "no parent");
  Alcotest.(check int) "genesis children" 1
    (List.length (Forest.children f Block.genesis_hash))

let test_extends () =
  let f = Forest.create () in
  let blocks = Helpers.chain ~reg 4 in
  Helpers.add_all f blocks;
  match blocks with
  | [ b1; _b2; _b3; b4 ] ->
      Alcotest.(check bool) "deep extends" true
        (Forest.extends f ~descendant:b4.hash ~ancestor:b1.hash);
      Alcotest.(check bool) "extends genesis" true
        (Forest.extends f ~descendant:b4.hash ~ancestor:Block.genesis_hash);
      Alcotest.(check bool) "reflexive" true
        (Forest.extends f ~descendant:b4.hash ~ancestor:b4.hash);
      Alcotest.(check bool) "not reversed" false
        (Forest.extends f ~descendant:b1.hash ~ancestor:b4.hash)
  | _ -> assert false

let test_commit_prefix () =
  let f = Forest.create () in
  let blocks = Helpers.chain ~reg 3 in
  Helpers.add_all f blocks;
  match blocks with
  | [ b1; b2; b3 ] -> (
      match Forest.commit f b2.hash with
      | Ok (newly, forked) ->
          Alcotest.(check int) "two newly committed" 2 (List.length newly);
          Alcotest.(check bool) "order low to high" true
            (match newly with
            | [ x; y ] -> Block.equal x b1 && Block.equal y b2
            | _ -> false);
          Alcotest.(check int) "no forks" 0 (List.length forked);
          Alcotest.(check int) "committed height" 2 (Forest.committed_height f);
          Alcotest.(check int) "committed count" 3 (Forest.committed_count f);
          Alcotest.(check bool) "b3 survives" true (Forest.mem f b3.hash);
          Alcotest.(check int) "size" 1 (Forest.size f)
      | Error _ -> Alcotest.fail "commit failed")
  | _ -> assert false

let test_commit_prunes_conflicting_branch () =
  let f = Forest.create () in
  let b1 = Helpers.child ~reg ~view:1 Block.genesis in
  let b2 = Helpers.child ~reg ~view:2 b1 in
  let b2' = Helpers.child ~reg ~view:3 b1 in
  let b3' = Helpers.child ~reg ~view:4 b2' in
  Helpers.add_all f [ b1; b2; b2'; b3' ];
  match Forest.commit f b2.hash with
  | Ok (newly, forked) ->
      Alcotest.(check int) "committed" 2 (List.length newly);
      Alcotest.(check int) "forked branch pruned" 2 (List.length forked);
      Alcotest.(check bool) "forked sorted by height" true
        (match forked with
        | [ x; y ] -> x.Block.height <= y.Block.height
        | _ -> false);
      Alcotest.(check bool) "b2' gone" false (Forest.mem f b2'.hash);
      Alcotest.(check bool) "b3' gone" false (Forest.mem f b3'.hash)
  | Error _ -> Alcotest.fail "commit failed"

let test_prune_order_ties_on_hash () =
  (* Two dead siblings of equal height, plus a child of one of them: the
     pruned list is ordered by height, equal heights by block hash. *)
  let f = Forest.create () in
  let b1 = Helpers.child ~reg ~view:1 Block.genesis in
  let b2 = Helpers.child ~reg ~view:2 b1 in
  let s1 = Helpers.child ~reg ~view:3 b1 in
  let s2 = Helpers.child ~reg ~view:4 b1 in
  let s2_child = Helpers.child ~reg ~view:5 s2 in
  Helpers.add_all f [ b1; b2; s1; s2; s2_child ];
  let lo, hi = if String.compare s1.hash s2.hash < 0 then (s1, s2) else (s2, s1) in
  match Forest.commit f b2.hash with
  | Ok (_, forked) ->
      Alcotest.(check (list string)) "height, then hash"
        (List.map (fun (b : Block.t) -> b.hash) [ lo; hi; s2_child ])
        (List.map (fun (b : Block.t) -> b.hash) forked);
      Alcotest.(check int) "committed count" 3 (Forest.committed_count f)
  | Error _ -> Alcotest.fail "commit failed"

let test_commit_already_committed () =
  let f = Forest.create () in
  let blocks = Helpers.chain ~reg 2 in
  Helpers.add_all f blocks;
  match blocks with
  | [ b1; _ ] ->
      (match Forest.commit f b1.hash with Ok _ -> () | Error _ -> Alcotest.fail "first");
      Alcotest.(check bool) "already" true
        (Forest.commit f b1.hash = Error Forest.Already_committed)
  | _ -> assert false

let test_commit_unknown () =
  let f = Forest.create () in
  Alcotest.(check bool) "unknown" true
    (Forest.commit f (String.make 32 'q') = Error Forest.Unknown_block)

let test_add_below_horizon () =
  let f = Forest.create () in
  let b1 = Helpers.child ~reg ~view:1 Block.genesis in
  let b2 = Helpers.child ~reg ~view:2 b1 in
  Helpers.add_all f [ b1; b2 ];
  (match Forest.commit f b2.hash with Ok _ -> () | Error _ -> Alcotest.fail "commit");
  (* A late block whose parent is genesis (now below the horizon). *)
  let late = Helpers.child ~reg ~view:5 Block.genesis in
  Alcotest.(check bool) "late conflicting add dropped" true
    (Forest.add f late = Forest.Below_prune_horizon);
  (* A block extending the committed head is fine. *)
  let ok = Helpers.child ~reg ~view:6 b2 in
  Alcotest.(check bool) "extending head ok" true (Forest.add f ok = Forest.Added)

let test_committed_at () =
  let f = Forest.create () in
  let blocks = Helpers.chain ~reg 3 in
  Helpers.add_all f blocks;
  (match Forest.commit f (List.nth blocks 2).Block.hash with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "commit");
  List.iteri
    (fun i (b : Block.t) ->
      match Forest.committed_at f (i + 1) with
      | Some got -> Alcotest.(check bool) "height index" true (Block.equal got b)
      | None -> Alcotest.fail "missing committed block")
    blocks;
  Alcotest.(check bool) "beyond head" true (Forest.committed_at f 9 = None)

let test_commit_conflicting_is_error () =
  let f = Forest.create () in
  let b1 = Helpers.child ~reg ~view:1 Block.genesis in
  let b1' = Helpers.child ~reg ~view:2 Block.genesis in
  Helpers.add_all f [ b1; b1' ];
  (match Forest.commit f b1.hash with Ok _ -> () | Error _ -> Alcotest.fail "commit");
  (* b1' was pruned by the commit; committing it must fail, not fork. *)
  Alcotest.(check bool) "conflict detected" true
    (match Forest.commit f b1'.hash with
    | Error Forest.Unknown_block | Error Forest.Conflicts_with_committed -> true
    | Ok _ | Error _ -> false)

let test_tip_candidates () =
  let f = Forest.create () in
  let b1 = Helpers.child ~reg ~view:1 Block.genesis in
  let b2 = Helpers.child ~reg ~view:2 b1 in
  let b2' = Helpers.child ~reg ~view:3 b1 in
  Helpers.add_all f [ b1; b2; b2' ];
  let tips = Forest.tip_candidates f in
  Alcotest.(check int) "two leaves" 2 (List.length tips);
  Alcotest.(check int) "highest first" 2 (List.hd tips).Block.height

let test_fold_uncommitted () =
  let f = Forest.create () in
  Helpers.add_all f (Helpers.chain ~reg 5);
  let count = Forest.fold_uncommitted f (fun acc _ -> acc + 1) 0 in
  Alcotest.(check int) "folds all" 5 count

let test_commit_drops_committed_children () =
  (* genesis <- b1 <- b2 <- b3 <- b4, plus a fork b2' off b1. Committing
     b3 prunes the fork; the new head keeps its child, and no committed
     ancestor lists any child. *)
  let f = Forest.create () in
  let b1 = Helpers.child ~reg ~view:1 Block.genesis in
  let b2 = Helpers.child ~reg ~view:2 b1 in
  let b2' = Helpers.child ~reg ~view:3 b1 in
  let b3 = Helpers.child ~reg ~view:4 b2 in
  let b4 = Helpers.child ~reg ~view:5 b3 in
  Helpers.add_all f [ b1; b2; b2'; b3; b4 ];
  let hashes bs = List.map (fun (b : Block.t) -> b.hash) bs in
  let head_children = hashes (Forest.children f b3.hash) in
  (match Forest.commit f b3.hash with
  | Ok (_, forked) ->
      Alcotest.(check (list string)) "fork pruned" [ b2'.hash ] (hashes forked)
  | Error _ -> Alcotest.fail "commit failed");
  Alcotest.(check (list string)) "head's children unchanged" head_children
    (hashes (Forest.children f b3.hash));
  List.iter
    (fun (b : Block.t) ->
      Alcotest.(check (list string)) "committed ancestor" [] (hashes (Forest.children f b.hash)))
    [ Block.genesis; b1; b2 ];
  (match Forest.commit f b4.hash with Ok _ -> () | Error _ -> Alcotest.fail "commit b4");
  Alcotest.(check (list string)) "old head" [] (hashes (Forest.children f b3.hash))

let test_add_bad_height () =
  let f = Forest.create () in
  let b1 = Helpers.child ~reg ~view:1 Block.genesis in
  Helpers.add_all f [ b1 ];
  let b2 = Helpers.child ~reg ~view:2 b1 in
  Alcotest.(check bool) "height skips one" true
    (Forest.add f { b2 with Block.height = 3 } = Forest.Bad_height);
  let head_child = Helpers.child ~reg ~view:3 Block.genesis in
  Alcotest.(check bool) "height repeats the parent's" true
    (Forest.add f { head_child with Block.height = 0 } = Forest.Below_prune_horizon);
  Alcotest.(check bool) "height is the parent's" true
    (Forest.add f { b2 with Block.height = 1 } = Forest.Bad_height);
  Alcotest.(check int) "nothing stored" 1 (Forest.size f);
  Alcotest.(check bool) "valid child" true (Forest.add f b2 = Forest.Added)

let test_committed_at_long_chain () =
  (* Longer than the height array's initial capacity. *)
  let f = Forest.create () in
  let blocks = Helpers.chain ~reg 150 in
  Helpers.add_all f blocks;
  (match Forest.commit f (List.nth blocks 99).Block.hash with
  | Ok (newly, _) -> Alcotest.(check int) "newly" 100 (List.length newly)
  | Error _ -> Alcotest.fail "commit");
  (match Forest.commit f (List.nth blocks 149).Block.hash with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "commit");
  List.iteri
    (fun i (b : Block.t) ->
      match Forest.committed_at f (i + 1) with
      | Some c -> Alcotest.(check string) "by height" b.hash c.hash
      | None -> Alcotest.failf "height %d missing" (i + 1))
    blocks;
  Alcotest.(check bool) "below genesis" true (Forest.committed_at f (-1) = None);
  Alcotest.(check bool) "above head" true (Forest.committed_at f 151 = None);
  Alcotest.(check int) "committed count" 151 (Forest.committed_count f)

let test_lookup_alloc () =
  let f = Forest.create () in
  let blocks = Helpers.chain ~reg 8 in
  Helpers.add_all f blocks;
  (match Forest.commit f (List.nth blocks 3).Block.hash with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "commit");
  (* Four committed and four uncommitted hashes, plus genesis. *)
  let hashes = Array.of_list (List.map (fun (b : Block.t) -> b.hash) blocks) in
  let hashes = Array.append [| Block.genesis_hash |] hashes in
  let k = Array.length hashes in
  Helpers.check_no_alloc "Forest.mem" (fun i ->
      if not (Forest.mem f hashes.(i mod k)) then Alcotest.fail "mem");
  Helpers.check_no_alloc "Forest.find" (fun i ->
      match Forest.find f hashes.(i mod k) with
      | Some _ -> ()
      | None -> Alcotest.fail "find")

(* Property: random insert/commit sequences keep invariants: committed
   chain is linear and hash-linked; uncommitted blocks all descend from
   the committed head. *)
let random_ops_prop =
  let open QCheck in
  let gen = Gen.list_size (Gen.int_range 1 40) (Gen.int_range 0 9) in
  Test.make ~name:"random grow/commit keeps forest invariants" ~count:100
    (make ~print:(fun l -> string_of_int (List.length l)) gen)
    (fun choices ->
      let f = Forest.create () in
      let tips = ref [ Block.genesis ] in
      let view = ref 0 in
      let ok = ref true in
      List.iter
        (fun c ->
          incr view;
          if c < 7 then begin
            (* grow a random tip *)
            let parent = List.nth !tips (c mod List.length !tips) in
            let b = Helpers.child ~reg ~view:!view parent in
            match Forest.add f b with
            | Forest.Added -> tips := b :: !tips
            | Forest.Below_prune_horizon -> ()
            | Forest.Duplicate | Forest.Missing_parent | Forest.Bad_height ->
                ok := false
          end
          else begin
            (* commit a random live tip *)
            let candidates = Forest.tip_candidates f in
            match candidates with
            | [] -> ()
            | b :: _ -> (
                match Forest.commit f b.Block.hash with
                | Ok _ ->
                    tips :=
                      List.filter (fun t -> Forest.mem f t.Block.hash) !tips;
                    tips := Forest.last_committed f :: !tips
                | Error Forest.Already_committed -> ()
                | Error _ -> ())
          end)
        choices;
      (* Invariant 1: committed chain hash-linked. *)
      let head = Forest.last_committed f in
      let rec walk (b : Block.t) =
        if b.height = 0 then true
        else
          match Forest.committed_at f (b.height - 1) with
          | Some p -> String.equal b.parent p.hash && walk p
          | None -> false
      in
      (* Invariant 2: all uncommitted blocks descend from the head. *)
      let all_descend =
        Forest.fold_uncommitted f
          (fun acc b ->
            acc && Forest.extends f ~descendant:b.Block.hash ~ancestor:head.hash)
          true
      in
      !ok && walk head && all_descend)

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial_state;
    Alcotest.test_case "add chain" `Quick test_add_chain;
    Alcotest.test_case "duplicate" `Quick test_add_duplicate;
    Alcotest.test_case "missing parent" `Quick test_add_missing_parent;
    Alcotest.test_case "children/parent" `Quick test_children_and_parent;
    Alcotest.test_case "extends" `Quick test_extends;
    Alcotest.test_case "commit prefix" `Quick test_commit_prefix;
    Alcotest.test_case "commit prunes conflicts" `Quick
      test_commit_prunes_conflicting_branch;
    Alcotest.test_case "prune order ties on hash" `Quick
      test_prune_order_ties_on_hash;
    Alcotest.test_case "already committed" `Quick test_commit_already_committed;
    Alcotest.test_case "unknown commit" `Quick test_commit_unknown;
    Alcotest.test_case "below horizon" `Quick test_add_below_horizon;
    Alcotest.test_case "committed_at" `Quick test_committed_at;
    Alcotest.test_case "conflicting commit is error" `Quick
      test_commit_conflicting_is_error;
    Alcotest.test_case "tip candidates" `Quick test_tip_candidates;
    Alcotest.test_case "fold_uncommitted" `Quick test_fold_uncommitted;
    Alcotest.test_case "committed blocks keep no children" `Quick
      test_commit_drops_committed_children;
    Alcotest.test_case "bad height" `Quick test_add_bad_height;
    Alcotest.test_case "committed_at on a long chain" `Quick
      test_committed_at_long_chain;
    Alcotest.test_case "mem and find allocate nothing" `Quick test_lookup_alloc;
    QCheck_alcotest.to_alcotest random_ops_prop;
  ]
