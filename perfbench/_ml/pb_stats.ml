(* The reporting rule the whole benchmark follows, over sample sets kept in
   [Bamboo_util.Stats]: a percentile is reported only when at least
   [min_tail] samples lie strictly beyond its nearest-rank position, so a
   p99 needs 1000 samples and a p50 needs 20. A percentile without that
   support reads as noise and fails the run instead of being printed. *)

module Stats = Bamboo_util.Stats

let min_tail = 10

(* Samples beyond the nearest-rank position of percentile [p] among [n]. *)
let tail_count ~n p =
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  n - max 1 rank

let reportable ~n p = n > 0 && tail_count ~n p >= min_tail

let percentile s p =
  let n = Stats.count s in
  if reportable ~n p then Ok (Stats.percentile s p)
  else
    Error
      (Printf.sprintf "p%g of %d samples has %d beyond it (need >= %d)" p n
         (if n = 0 then 0 else tail_count ~n p)
         min_tail)

let of_list xs =
  let s = Stats.create () in
  List.iter (Stats.add s) xs;
  s

(* Median of a non-empty list (mean of the middle pair when even). *)
let median xs =
  if xs = [] then invalid_arg "Pb_stats.median: no samples";
  Stats.median (of_list xs)
