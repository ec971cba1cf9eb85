module Committed = Bamboo_mempool.Committed
open Bamboo_types

let id ~client seq = { Tx.client; seq }

(* --- model test: the set against a plain hash table of every id --- *)

type op = Add of Tx.id | Mem of Tx.id

let pp_op = function
  | Add i -> "add " ^ Tx.id_to_string i
  | Mem i -> "mem " ^ Tx.id_to_string i

(* The order an open loop commits one global seq space in: each seq goes
   to one of [k] proposers ([stream.(i)] for [base + i]), and the
   proposers take turns committing their next [block] seqs, ascending. *)
let interleaved ~base ~block stream =
  let k = Array.fold_left max 0 stream + 1 in
  let queues = Array.make k [] in
  for i = Array.length stream - 1 downto 0 do
    queues.(stream.(i)) <- (base + i) :: queues.(stream.(i))
  done;
  let out = ref [] in
  while Array.exists (fun q -> q <> []) queues do
    Array.iteri
      (fun j q ->
        let rec take n q =
          match q with
          | s :: rest when n > 0 ->
              out := s :: !out;
              take (n - 1) rest
          | _ -> q
        in
        queues.(j) <- take block q)
      queues
  done;
  List.rev !out

(* Three clients; each segment is a window of seqs from seq 0, from a
   mid-range base, or ending at [max_int], added in order, shuffled,
   interleaved from up to four proposers, or with repeats, with lookups
   mixed in. Streams may open with lookups, before anything has been
   added. *)
let ops_gen =
  let open QCheck.Gen in
  let window client base n order =
    let seqs = List.init n (fun i -> base + i) in
    map (fun seqs -> List.map (fun s -> Add (id ~client s)) seqs) (order seqs)
  in
  let proposers seqs =
    int_range 1 4 >>= fun k ->
    int_range 1 40 >>= fun block ->
    array_repeat (List.length seqs) (int_range 0 (k - 1)) >>= fun stream ->
    return (interleaved ~base:(List.hd seqs) ~block stream)
  in
  let segment =
    int_range 0 2 >>= fun client ->
    int_range 1 100 >>= fun n ->
    oneofl [ 0; 1000; 1 lsl 40; max_int - n + 1 ] >>= fun base ->
    frequency
      [
        (2, window client base n return);
        (3, window client base n shuffle_l);
        (3, window client base n proposers);
        (2, map (fun ks -> List.map (fun k -> Mem (id ~client (base + k))) ks)
              (list_size (int_range 1 8) (int_range (-2) (n + 2))));
        (1, map (fun ks -> List.map (fun k -> Add (id ~client (base + k))) ks)
              (list_size (int_range 1 40) (int_range 0 (n - 1))));
      ]
  in
  map List.concat (list_size (int_range 0 30) segment)

let model_prop =
  let open QCheck in
  Test.make ~name:"committed set agrees with a hash table" ~count:300
    (make ~print:(fun ops -> String.concat ", " (List.map pp_op ops)) ops_gen)
    (fun ops ->
      let c = Committed.create () and r = Hashtbl.create 64 in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Add i ->
                let fresh = not (Hashtbl.mem r i) in
                Hashtbl.replace r i ();
                Bool.equal (Committed.add c ~client:i.client ~seq:i.seq) fresh
            | Mem i -> Bool.equal (Committed.mem c ~client:i.client ~seq:i.seq) (Hashtbl.mem r i)
          in
          same && Committed.count c = Hashtbl.length r)
        ops)

(* The committed set compacts: 100k ids of two clients, added in
   shuffled order or in the order four proposers commit 200-seq blocks,
   leave it a few hundred words bigger than a fresh one, not one entry
   per tx. *)
let compacts order () =
  let count = 100_000 in
  let order = order count in
  let c = Committed.create () in
  Array.iter
    (fun seq ->
      Alcotest.(check bool) "new" true (Committed.add c ~client:(seq * 2 / count) ~seq))
    order;
  Alcotest.(check int) "count" count (Committed.count c);
  Alcotest.(check bool) "every id is known" true (Committed.mem c ~client:1 ~seq:99_999);
  Alcotest.(check bool) "a re-add is not new" false (Committed.add c ~client:0 ~seq:0);
  let words c = Obj.reachable_words (Obj.repr c) in
  let fresh = words (Committed.create ()) in
  if words c > fresh + 500 then
    Alcotest.failf "set holds %d words after 100k adds, a fresh one %d" (words c) fresh

let shuffled count =
  let order = Array.init count Fun.id in
  let rng = Random.State.make [| 15 |] in
  for i = count - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  order

let by_proposers count =
  let rng = Random.State.make [| 16 |] in
  Array.of_list
    (interleaved ~base:0 ~block:200 (Array.init count (fun _ -> Random.State.int rng 4)))

let suite =
  [
    QCheck_alcotest.to_alcotest model_prop;
    Alcotest.test_case "committed set compacts" `Quick (compacts shuffled);
    Alcotest.test_case "committed set compacts, interleaved" `Quick
      (compacts by_proposers);
  ]
