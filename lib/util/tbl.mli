(** Deterministic views over [Hashtbl.t]. Bucket order is unspecified,
    so results that can reach a trace sink, the ledger or a rendered
    table must be sorted first; these helpers concentrate the one
    justified [no-order-leak] suppression in the repository. *)

val sorted_bindings :
  compare:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> ('k * 'v) list
(** All bindings, sorted by key with [compare]. *)

val sorted_filter_map :
  compare:('a -> 'a -> int) ->
  ('k -> 'v -> 'a option) ->
  ('k, 'v) Hashtbl.t ->
  'a list
(** [sorted_filter_map ~compare f tbl] is every [Some x] that [f] returns
    over the bindings of [tbl], sorted with [compare]. Only the kept
    values are sorted. [compare] must not tie two distinct kept values,
    or their relative order would leak the bucket order. *)

val sorted_keys : compare:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> 'k list

(** The same views for a functorial table ([Hashtbl.Make]). *)
module type FOLDABLE = sig
  type key
  type 'a t

  val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
end

module Sorted (H : FOLDABLE) : sig
  val sorted_filter_map :
    compare:('a -> 'a -> int) -> (H.key -> 'v -> 'a option) -> 'v H.t -> 'a list

  val sorted_bindings :
    compare:(H.key -> H.key -> int) -> 'v H.t -> (H.key * 'v) list

  val sorted_keys : compare:(H.key -> H.key -> int) -> 'v H.t -> H.key list
end
