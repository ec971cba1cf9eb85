(** Immutable merged view of a {!Registry.t}, plus the two export formats:
    Prometheus text exposition and the repo's [Json] module. *)

type value =
  | Counter of int
  | Gauge of {
      last : float;
      min_v : float;
      max_v : float;
      mean : float;
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

val of_registry : Registry.t -> t
(** Every registered metric; empty for a disabled registry. *)

val find : t -> ?labels:(string * string) list -> string -> metric option

val counter_value : t -> string -> int
(** Sum of every counter sharing the name, across label sets (0 if none). *)

val percentile :
  buckets:(int * int) list -> count:int -> max_v:int -> float -> int
(** Bucket-resolution percentile: lower bound of the bucket where the
    cumulative count crosses the rank; p100 reports the exact maximum. *)

val to_json : t -> Bamboo_util.Json.t
(** [{"metrics": [{"name", "labels"?, "type", ...}]}] — histograms carry
    count/sum/max, p50/p95/p99 and their non-empty buckets. *)

val to_prometheus : t -> string
(** Prometheus text exposition: one [# TYPE] line per metric name, counters
    and gauges as single samples (gauges export their last value),
    histograms as cumulative [_bucket{le=...}] series plus [_sum] and
    [_count]. *)
