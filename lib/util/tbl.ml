(* Deterministic views over hash tables. Hashtbl bucket order is
   unspecified (and differs across key insertion histories), so any
   fold/iter whose result can reach a trace sink, the ledger, or a
   rendered table must go through these helpers instead. This is
   the one place the linter's no-order-leak rule is deliberately
   suppressed; every other module sorts by going through here. *)

(* Collecting into a list then sorting erases the bucket order. *)
let filter_sorted fold ~compare:cmp f tbl =
  let kept =
    fold (fun k v acc -> match f k v with Some x -> x :: acc | None -> acc) tbl []
  in
  List.sort cmp kept

let sorted_filter_map ~compare:cmp f tbl =
  filter_sorted (Hashtbl.fold [@lint.allow "no-order-leak"]) ~compare:cmp f tbl

let sorted_bindings ~compare:cmp tbl =
  sorted_filter_map
    ~compare:(fun (k1, _) (k2, _) -> cmp k1 k2)
    (fun k v -> Some (k, v))
    tbl

let sorted_keys ~compare:cmp tbl =
  List.map fst (sorted_bindings ~compare:cmp tbl)

module type FOLDABLE = sig
  type key
  type 'a t

  val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
end

module Sorted (H : FOLDABLE) = struct
  let sorted_filter_map ~compare:cmp f tbl = filter_sorted H.fold ~compare:cmp f tbl

  let sorted_bindings ~compare:cmp tbl =
    sorted_filter_map
      ~compare:(fun (k1, _) (k2, _) -> cmp k1 k2)
      (fun k v -> Some (k, v))
      tbl

  let sorted_keys ~compare:cmp tbl =
    List.map fst (sorted_bindings ~compare:cmp tbl)
end
