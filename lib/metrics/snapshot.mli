(** The one read-out of a {!Registry.t}: an immutable view of every
    registered metric ({!Registry.snapshot} builds it), the histograms'
    bucket maths, and the two export formats: Prometheus text exposition
    and the repo's [Json] module. *)

type value =
  | Counter of int
  | Gauge of {
      last : float;  (** last sample; meaningful for single-writer gauges *)
      min_v : float;  (** 0 before the first sample *)
      max_v : float;  (** 0 before the first sample *)
      mean : float;  (** sum / samples; 0 before the first sample *)
      samples : int;
    }
  | Histogram of {
      count : int;
      sum : int;
      max_v : int;
      buckets : (int * int) list;
          (** (bucket lower bound, count), non-empty buckets ascending *)
    }

type metric = { name : string; labels : (string * string) list; value : value }

type t = { metrics : metric list }
(** Sorted by (name, labels) — deterministic for golden tests. *)

val empty : t
val is_empty : t -> bool

val find : t -> ?labels:(string * string) list -> string -> metric option

val counter_value : t -> string -> int
(** Sum of every counter sharing the name, across label sets (0 if none). *)

(** {1 Histogram bucket maths} *)

val bucket_index : int -> int
(** Bucket for a value: exact (identity) below 32, then 16 sub-buckets per
    octave, bounding relative error at ~6%. *)

val bucket_lower : int -> int
(** Inclusive lower bound of a bucket; [bucket_lower (bucket_index v) <= v]
    and [v < bucket_lower (bucket_index v + 1)]. *)

val percentile :
  buckets:(int * int) list -> count:int -> max_v:int -> float -> int
(** Bucket-resolution percentile: lower bound of the bucket where the
    cumulative count crosses the rank; p100 reports the exact maximum. *)

(** {1 Export} *)

val to_json : t -> Bamboo_util.Json.t
(** [{"metrics": [{"name", "labels"?, "type", ...}]}] — histograms carry
    count/sum/max, p50/p95/p99 and their non-empty buckets. *)

val to_prometheus : t -> string
(** Prometheus text exposition: one [# TYPE] line per metric name, counters
    and gauges as single samples (gauges export their last value),
    histograms as cumulative [_bucket{le=...}] series plus [_sum] and
    [_count]. *)
