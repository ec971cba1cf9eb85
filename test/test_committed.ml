module Committed = Bamboo_mempool.Committed
open Bamboo_types

let id ~client seq = { Tx.client; seq }

(* --- model test: the set against a plain hash table of every id --- *)

type op = Add of Tx.id | Mem of Tx.id

let pp_op = function
  | Add i -> "add " ^ Tx.id_to_string i
  | Mem i -> "mem " ^ Tx.id_to_string i

(* Three clients; each segment is a window of seqs from seq 0, from a
   mid-range base, or ending at [max_int], added in order, shuffled or
   with repeats, with lookups mixed in. Streams may open with lookups, before
   anything has been added. *)
let ops_gen =
  let open QCheck.Gen in
  let window client base n order =
    let seqs = List.init n (fun i -> base + i) in
    map (fun seqs -> List.map (fun s -> Add (id ~client s)) seqs) (order seqs)
  in
  let segment =
    int_range 0 2 >>= fun client ->
    int_range 1 100 >>= fun n ->
    oneofl [ 0; 1000; 1 lsl 40; max_int - n + 1 ] >>= fun base ->
    frequency
      [
        (2, window client base n return);
        (3, window client base n shuffle_l);
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
                Bool.equal (Committed.add c i) fresh
            | Mem i -> Bool.equal (Committed.mem c i) (Hashtbl.mem r i)
          in
          same && Committed.count c = Hashtbl.length r)
        ops)

(* The committed set compacts: 100k ids of two clients, added in
   shuffled order, leave it a few hundred words bigger than a fresh one,
   not one entry per tx. *)
let test_compacts () =
  let count = 100_000 in
  let order = Array.init count Fun.id in
  let rng = Random.State.make [| 15 |] in
  for i = count - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  let c = Committed.create () in
  Array.iter
    (fun seq ->
      Alcotest.(check bool) "new" true (Committed.add c (id ~client:(seq * 2 / count) seq)))
    order;
  Alcotest.(check int) "count" count (Committed.count c);
  Alcotest.(check bool) "every id is known" true (Committed.mem c (id ~client:1 99_999));
  Alcotest.(check bool) "a re-add is not new" false (Committed.add c (id ~client:0 0));
  let words c = Obj.reachable_words (Obj.repr c) in
  let fresh = words (Committed.create ()) in
  if words c > fresh + 500 then
    Alcotest.failf "set holds %d words after 100k adds, a fresh one %d" (words c) fresh

let suite =
  [
    QCheck_alcotest.to_alcotest model_prop;
    Alcotest.test_case "committed set compacts" `Quick test_compacts;
  ]
