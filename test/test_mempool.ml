module Mempool = Bamboo_mempool.Mempool
open Bamboo_types

let tx = Helpers.tx

let test_add_and_batch_fifo () =
  let p = Mempool.create () in
  let txs = Helpers.txs 5 in
  List.iter (fun t -> ignore (Mempool.add p t)) txs;
  Alcotest.(check int) "length" 5 (Mempool.length p);
  let batch = Mempool.batch p ~max:3 in
  Alcotest.(check int) "batch size" 3 (Body.length batch);
  Alcotest.(check bool) "FIFO order" true
    (List.for_all2 Tx.equal (Body.to_list batch) (List.filteri (fun i _ -> i < 3) txs));
  Alcotest.(check int) "remaining" 2 (Mempool.length p)

let test_batch_more_than_available () =
  let p = Mempool.create () in
  ignore (Mempool.add p (tx 1));
  let batch = Mempool.batch p ~max:10 in
  Alcotest.(check int) "takes what exists" 1 (Body.length batch)

let test_dedup () =
  let p = Mempool.create () in
  Alcotest.(check bool) "first add" true (Mempool.add p (tx 1));
  Alcotest.(check bool) "duplicate rejected" false (Mempool.add p (tx 1));
  Alcotest.(check int) "length" 1 (Mempool.length p)

let test_inflight_dedup () =
  let p = Mempool.create () in
  ignore (Mempool.add p (tx 1));
  ignore (Mempool.batch p ~max:1);
  Alcotest.(check bool) "in-flight still rejected" false (Mempool.add p (tx 1));
  Alcotest.(check bool) "contains in-flight" true
    (Mempool.contains p (tx 1).Tx.id)

let test_capacity () =
  let p = Mempool.create ~capacity:2 () in
  Alcotest.(check bool) "1" true (Mempool.add p (tx 1));
  Alcotest.(check bool) "2" true (Mempool.add p (tx 2));
  Alcotest.(check bool) "3 rejected" false (Mempool.add p (tx 3));
  ignore (Mempool.batch p ~max:1);
  Alcotest.(check bool) "space after batch" true (Mempool.add p (tx 3))

let test_rejection_stats_split () =
  let p = Mempool.create ~capacity:2 () in
  ignore (Mempool.add p (tx 1));
  ignore (Mempool.add p (tx 1));
  (* duplicate *)
  ignore (Mempool.add p (tx 2));
  ignore (Mempool.add p (tx 3));
  (* full *)
  ignore (Mempool.add p (tx 4));
  (* full *)
  let s = Mempool.stats p in
  Alcotest.(check int) "rejected_full" 2 s.Mempool.rejected_full;
  Alcotest.(check int) "rejected_dup" 1 s.Mempool.rejected_dup;
  (* capacity is checked before dedup: a duplicate hitting a full pool
     is tallied as backpressure, not as a duplicate *)
  ignore (Mempool.add p (tx 2));
  let s = Mempool.stats p in
  Alcotest.(check int) "full takes precedence" 3 s.Mempool.rejected_full;
  Alcotest.(check int) "dup unchanged" 1 s.Mempool.rejected_dup

let test_requeue_front_order () =
  let p = Mempool.create () in
  List.iter (fun t -> ignore (Mempool.add p t)) [ tx 1; tx 2; tx 3; tx 4 ];
  let batch = Mempool.batch p ~max:2 in
  (* queue: [3;4], forked batch [1;2] goes back to the FRONT in order. *)
  let n = Mempool.requeue_front p batch in
  Alcotest.(check int) "requeued" 2 n;
  let next = Mempool.batch p ~max:4 in
  Alcotest.(check (list int)) "front order preserved"
    [ 1; 2; 3; 4 ]
    (List.init (Body.length next) (Body.seq next))

let test_requeue_skips_committed () =
  let p = Mempool.create () in
  ignore (Mempool.add p (tx 1));
  let batch = Mempool.batch p ~max:1 in
  Mempool.forget p batch;
  Alcotest.(check int) "committed not requeued" 0 (Mempool.requeue_front p batch)

let test_requeue_skips_foreign () =
  let p = Mempool.create () in
  (* A forked block proposed by another replica contains txs this pool has
     never seen: they must not be adopted. *)
  Alcotest.(check int) "foreign skipped" 0
    (Mempool.requeue_front p (Body.of_list [ tx 42 ]));
  Alcotest.(check int) "still empty" 0 (Mempool.length p)

let test_requeue_skips_queued () =
  let p = Mempool.create () in
  ignore (Mempool.add p (tx 1));
  Alcotest.(check int) "already queued" 0 (Mempool.requeue_front p (Body.of_list [ tx 1 ]))

let test_forget_blocks_readds () =
  let p = Mempool.create () in
  ignore (Mempool.add p (tx 1));
  let batch = Mempool.batch p ~max:1 in
  Mempool.forget p batch;
  Alcotest.(check bool) "committed never re-added" false (Mempool.add p (tx 1));
  Alcotest.(check bool) "not contained" false (Mempool.contains p (tx 1).Tx.id)

let test_batch_skips_committed_in_queue () =
  (* Client-broadcast mode: a tx committed through another replica's block
     while still queued here must be dropped by batch, not proposed again. *)
  let p = Mempool.create () in
  ignore (Mempool.add p (tx 1));
  ignore (Mempool.add p (tx 2));
  Mempool.forget p (Body.of_list [ tx 1 ]);
  let batch = Mempool.batch p ~max:2 in
  Alcotest.(check (list int)) "only live tx"
    [ 2 ]
    (List.init (Body.length batch) (Body.seq batch))

let test_requeue_respects_capacity () =
  let p = Mempool.create ~capacity:3 () in
  List.iter (fun t -> ignore (Mempool.add p t)) [ tx 1; tx 2; tx 3 ];
  let batch = Mempool.batch p ~max:2 in
  ignore (Mempool.add p (tx 4));
  ignore (Mempool.add p (tx 5));
  (* queue full again: [3;4;5]; requeueing 2 can only fit 0. *)
  Alcotest.(check int) "capacity respected" 0 (Mempool.requeue_front p batch)

let no_duplicate_batches_prop =
  let open QCheck in
  let gen = Gen.list_size (Gen.int_range 0 120) (Gen.int_range 0 30) in
  Test.make ~name:"a tx is never batched twice unless requeued" ~count:200
    (make ~print:(fun l -> string_of_int (List.length l)) gen)
    (fun seqs ->
      let p = Mempool.create ~capacity:1000 () in
      List.iter (fun s -> ignore (Mempool.add p (tx s))) seqs;
      let b1 = Mempool.batch p ~max:10 in
      let b2 = Mempool.batch p ~max:10 in
      let ids b = List.map (fun (t : Tx.t) -> t.Tx.id) (Body.to_list b) in
      List.for_all (fun i -> not (List.mem i (ids b2))) (ids b1))

(* A batch of 400 filler txs keeps three int columns and no per-tx
   record: at most 4 words a tx plus a constant, where a list of boxed
   [Tx.t]s holds 10. *)
let test_batch_words () =
  let n = 400 in
  let p = Mempool.create ~capacity:n () in
  List.iter (fun t -> ignore (Mempool.add p t)) (Helpers.txs ~client:3 n);
  let body = Mempool.batch p ~max:n in
  Alcotest.(check int) "full batch" n (Body.length body);
  let words = Obj.reachable_words (Obj.repr body) in
  let bound = (3 * n) + 16 in
  if words > bound then
    Alcotest.failf "a %d-tx body holds %d words (bound %d)" n words bound

(* --- model test: the pool against the status-table pool it replaced ---

   [Reference] keeps one status per id forever, [Committed] included; the
   pool under test keeps only live ids and a compacted committed set. Both
   must answer every operation identically. *)

module Reference = struct
  type status = Queued | In_flight | Committed

  type t = {
    queue : Tx.t Bamboo_util.Deque.t;
    status : (Tx.id, status) Hashtbl.t;
    cap : int;
    mutable rejected_full : int;
    mutable rejected_dup : int;
    mutable peak : int;
    mutable batches : int;
    mutable batched : int;
  }

  let create cap =
    {
      queue = Bamboo_util.Deque.create ();
      status = Hashtbl.create 16;
      cap;
      rejected_full = 0;
      rejected_dup = 0;
      peak = 0;
      batches = 0;
      batched = 0;
    }

  let note_peak t = t.peak <- max t.peak (Bamboo_util.Deque.length t.queue)

  let add t (tx : Tx.t) =
    if Bamboo_util.Deque.length t.queue >= t.cap then begin
      t.rejected_full <- t.rejected_full + 1;
      false
    end
    else if Hashtbl.mem t.status tx.id then begin
      t.rejected_dup <- t.rejected_dup + 1;
      false
    end
    else begin
      Hashtbl.add t.status tx.id Queued;
      Bamboo_util.Deque.push_back t.queue tx;
      note_peak t;
      true
    end

  let requeue_front t txs =
    let count = ref 0 in
    List.iter
      (fun (tx : Tx.t) ->
        match Hashtbl.find_opt t.status tx.id with
        | Some Committed | Some Queued | None -> ()
        | Some In_flight ->
            if Bamboo_util.Deque.length t.queue < t.cap then begin
              Hashtbl.replace t.status tx.id Queued;
              Bamboo_util.Deque.push_front t.queue tx;
              incr count
            end
            else Hashtbl.remove t.status tx.id)
      (List.rev txs);
    note_peak t;
    !count

  let batch t ~max =
    let rec take acc k =
      if k = 0 then List.rev acc
      else
        match Bamboo_util.Deque.pop_front t.queue with
        | None -> List.rev acc
        | Some tx -> (
            match Hashtbl.find_opt t.status tx.Tx.id with
            | Some Committed -> take acc k
            | Some Queued | Some In_flight | None ->
                Hashtbl.replace t.status tx.Tx.id In_flight;
                take (tx :: acc) (k - 1))
    in
    let taken = take [] max in
    t.batches <- t.batches + 1;
    t.batched <- t.batched + List.length taken;
    taken

  let forget t txs =
    List.iter
      (fun (tx : Tx.t) -> Hashtbl.replace t.status tx.Tx.id Committed)
      txs

  let contains t id =
    match Hashtbl.find_opt t.status id with
    | Some Queued | Some In_flight -> true
    | Some Committed | None -> false
end

(* [Forget_batched] and [Requeue_batched] hand the last batch back as
   the pool packed it, as a replica does with a committed or forked
   block; [Forget] and [Requeue] pack arbitrary lists. *)
type op =
  | Add of Tx.t
  | Batch of int
  | Forget of Tx.t list
  | Requeue of Tx.t list
  | Forget_batched
  | Requeue_batched
  | Contains of Tx.t

let pp_op = function
  | Add t -> "add " ^ Tx.id_to_string t.id
  | Batch k -> "batch " ^ string_of_int k
  | Forget l ->
      "forget [" ^ String.concat ";" (List.map (fun (t : Tx.t) -> Tx.id_to_string t.id) l) ^ "]"
  | Requeue l ->
      "requeue [" ^ String.concat ";" (List.map (fun (t : Tx.t) -> Tx.id_to_string t.id) l) ^ "]"
  | Forget_batched -> "forget last batch"
  | Requeue_batched -> "requeue last batch"
  | Contains t -> "contains " ^ Tx.id_to_string t.id

(* Some txs carry data, so a batch fills the data column as well. *)
let a_tx_gen ~clients seq =
  QCheck.Gen.(
    map3
      (fun client seq data ->
        if data then Tx.make_with_data ~client ~seq ~data:(Printf.sprintf "P1:%d" seq)
        else tx ~client seq)
      clients seq (frequencyl [ (3, false); (1, true) ]))

(* Two clients, seqs clustered in a small range (with a few negatives) so
   duplicates, out-of-order and forget-before-add are common, plus seqs
   256 apart, which share a live-table bucket and sit far above the
   committed run; capacities down to 1 keep the pool full often. *)
let op_gen =
  let open QCheck.Gen in
  let seq =
    frequency
      [
        (3, int_range (-3) 60);
        (1, map2 (fun hi lo -> (hi * 256) + lo) (int_range 1 4) (int_range 0 3));
      ]
  in
  let a_tx = a_tx_gen ~clients:(int_range 0 1) seq in
  let txs = list_size (int_range 0 8) a_tx in
  frequency
    [
      (5, map (fun t -> Add t) a_tx);
      (2, map (fun k -> Batch k) (int_range 0 6));
      (3, map (fun l -> Forget l) txs);
      (2, map (fun l -> Requeue l) txs);
      (1, return Forget_batched);
      (1, return Requeue_batched);
      (1, map (fun t -> Contains t) a_tx);
    ]

(* Runs [ops] on a pool and on the reference, comparing every answer,
   the length and every stats field after each step. A batch must hold
   the reference's txs, equal as records, in order: so a tx re-queued
   from a packed body and batched again is rebuilt as it was added. *)
let agrees (cap, ops) =
  let p = Mempool.create ~capacity:cap () and r = Reference.create cap in
  let last = ref (Body.empty, []) in
  List.for_all
    (fun op ->
      let same =
        match op with
        | Add t -> Bool.equal (Mempool.add p t) (Reference.add r t)
        | Batch k ->
            let body = Mempool.batch p ~max:k and l = Reference.batch r ~max:k in
            last := (body, l);
            List.equal Tx.equal (Body.to_list body) l
        | Forget l ->
            Mempool.forget p (Body.of_list l);
            Reference.forget r l;
            true
        | Requeue l ->
            Int.equal (Mempool.requeue_front p (Body.of_list l)) (Reference.requeue_front r l)
        | Forget_batched ->
            let body, l = !last in
            Mempool.forget p body;
            Reference.forget r l;
            true
        | Requeue_batched ->
            let body, l = !last in
            Int.equal (Mempool.requeue_front p body) (Reference.requeue_front r l)
        | Contains t ->
            Bool.equal (Mempool.contains p t.id) (Reference.contains r t.id)
      in
      let s = Mempool.stats p in
      same
      && Mempool.length p = Bamboo_util.Deque.length r.Reference.queue
      && s.Mempool.rejected_full = r.Reference.rejected_full
      && s.Mempool.rejected_dup = r.Reference.rejected_dup
      && s.Mempool.peak_occupancy = r.Reference.peak
      && s.Mempool.batches = r.Reference.batches
      && s.Mempool.batched_txs = r.Reference.batched)
    ops

let print_ops (cap, ops) =
  Printf.sprintf "cap %d: %s" cap (String.concat ", " (List.map pp_op ops))

let model_prop =
  let open QCheck in
  let gen = Gen.pair (Gen.int_range 1 12) (Gen.list_size (Gen.int_range 0 150) op_gen) in
  Test.make ~name:"pool agrees with the status-table reference" ~count:500
    (make ~print:print_ops gen) agrees

(* Enough distinct live ids to grow the live table past its first sizes
   (256, then 512 slots), with seqs that share low bits across the table
   sizes (multiples of 256 and 1024, and of clients whose hashes collide)
   and seqs around the ends of the slot range, so probe runs and the
   deletions that shift them back wrap around the array. *)
let growth_op_gen =
  let open QCheck.Gen in
  let seq =
    frequency
      [
        (6, int_range 0 800);
        (2, map2 (fun hi lo -> (hi * 256) + lo) (int_range 0 40) (int_range (-2) 2));
        (1, map (fun hi -> hi * 1024) (int_range (-4) 12));
        (1, map2 (fun hi lo -> (hi * 512) - lo) (int_range 1 3) (int_range 1 8));
      ]
  in
  let a_tx = a_tx_gen ~clients:(oneofl [ 0; 1; 256 ]) seq in
  let txs = list_size (int_range 0 24) a_tx in
  frequency
    [
      (12, map (fun t -> Add t) a_tx);
      (2, map (fun k -> Batch k) (int_range 0 60));
      (2, map (fun l -> Forget l) txs);
      (1, map (fun l -> Requeue l) txs);
      (1, return Forget_batched);
      (1, return Requeue_batched);
      (1, map (fun t -> Contains t) a_tx);
    ]

let growth_prop =
  let open QCheck in
  let gen =
    Gen.pair (Gen.int_range 200 1500) (Gen.list_size (Gen.int_range 300 1500) growth_op_gen)
  in
  Test.make ~name:"pool agrees with the reference through table growth" ~count:150
    (make ~print:print_ops gen) agrees

let check_displacement name m ~bound =
  let d = Mempool.max_displacement m in
  if d > bound then
    Alcotest.failf "%s: longest displacement %d slots (bound %d)" name d bound

(* Client-broadcast pools hold dense windows of seqs. Two runs exactly
   one table size (8,192 slots at this occupancy) apart, or half of one,
   must not pile onto the same home slots: that made every probe walk
   the whole cluster.

   Table II's pools hold an interleaving instead: each of the 4 replicas
   holds every 4th seq of one client, and every committed block is
   forgotten by all 4, so three of every four removals are of seqs the
   pool never held. *)
let test_dense_runs_displacement () =
  List.iter
    (fun apart ->
      let m = Mempool.create ~capacity:4096 () in
      let add seq = ignore (Mempool.add m (Tx.make ~client:1 ~seq ~payload_len:0) : bool) in
      for seq = 0 to 1399 do add seq done;
      for seq = apart to apart + 1399 do add seq done;
      Alcotest.(check int) "all queued" 2800 (Mempool.length m);
      check_displacement (Printf.sprintf "runs %d apart" apart) m ~bound:16)
    [ 4096; 8192 ];
  let m = Mempool.create ~capacity:100_000 () in
  let block = 400 in
  for b = 0 to 199 do
    for seq = b * block to ((b + 1) * block) - 1 do
      if seq mod 4 = 0 then
        ignore (Mempool.add m (Tx.make ~client:0 ~seq ~payload_len:0) : bool)
    done;
    (* Blocks commit 20 behind the arrivals. *)
    if b >= 20 then
      Mempool.forget m
        (Body.of_list
           (List.init block (fun i ->
                Tx.make ~client:0 ~seq:(((b - 20) * block) + i) ~payload_len:0)))
  done;
  Alcotest.(check bool) "forgotten" false (Mempool.contains m { client = 0; seq = 0 });
  Alcotest.(check bool) "live" true (Mempool.contains m { client = 0; seq = 199 * block });
  check_displacement "every 4th seq, with misses" m ~bound:8

let suite =
  [
    Alcotest.test_case "add/batch FIFO" `Quick test_add_and_batch_fifo;
    Alcotest.test_case "batch underflow" `Quick test_batch_more_than_available;
    Alcotest.test_case "dedup" `Quick test_dedup;
    Alcotest.test_case "in-flight dedup" `Quick test_inflight_dedup;
    Alcotest.test_case "capacity" `Quick test_capacity;
    Alcotest.test_case "rejection stats split" `Quick
      test_rejection_stats_split;
    Alcotest.test_case "requeue front order" `Quick test_requeue_front_order;
    Alcotest.test_case "requeue skips committed" `Quick test_requeue_skips_committed;
    Alcotest.test_case "requeue skips foreign" `Quick test_requeue_skips_foreign;
    Alcotest.test_case "requeue skips queued" `Quick test_requeue_skips_queued;
    Alcotest.test_case "forget blocks re-adds" `Quick test_forget_blocks_readds;
    Alcotest.test_case "batch skips committed" `Quick
      test_batch_skips_committed_in_queue;
    Alcotest.test_case "requeue capacity" `Quick test_requeue_respects_capacity;
    Alcotest.test_case "batch words per tx" `Quick test_batch_words;
    Alcotest.test_case "dense seq runs stay near home" `Quick
      test_dense_runs_displacement;
    QCheck_alcotest.to_alcotest no_duplicate_batches_prop;
    QCheck_alcotest.to_alcotest model_prop;
    QCheck_alcotest.to_alcotest growth_prop;
  ]
