(** Descriptive statistics used by the benchmark facilities.

    [t] is a streaming accumulator (Welford's algorithm) that also retains
    the raw samples so that percentiles can be reported. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** 0 when empty. *)

val variance : t -> float
(** Sample variance (n-1 denominator); 0 when fewer than two samples. *)

val stddev : t -> float

val min_value : t -> float
(** 0 when empty (consistent with {!mean} and {!percentile}, and safe to
    serialize — no infinities in JSON reports). *)

val max_value : t -> float
(** 0 when empty. *)

val total : t -> float

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0, 100\]], by linear interpolation
    between closest ranks; 0 when empty. The two ranks are found by
    selection in place over the retained samples (linear expected time,
    no copy), in [Float.compare]'s order, so the value is the one a sort
    would give. *)

val median : t -> float

val merge : t -> t -> t
(** Pooled statistics of the two sample sets. *)

val mean_of : float list -> float

val stddev_of : float list -> float
(** Sample standard deviation; 0 for fewer than two values. *)
