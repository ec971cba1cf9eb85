(** Deterministic pseudo-random number generator (PCG-XSH-RR 64/32).

    Every stochastic component of the simulator draws from an explicit [t]
    so that experiments are reproducible from a single seed and independent
    streams can be split off for clients, links and leaders without
    cross-contamination. *)

type t

val create : seed:int -> t
(** [create ~seed] is a generator determined entirely by [seed]. *)

val split : t -> t
(** [split t] derives an independent stream from [t], advancing [t]. *)

val copy : t -> t

val bits32 : t -> int32
(** Next raw 32 bits. *)

val bits : t -> int
(** Next raw 32 bits as an int in [\[0, 2^32)]. Unlike {!bits32} and
    {!float}, whose results are boxed unless the call is inlined, it
    allocates nothing in any build. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)], drawn from one 32-bit
    output by rejection sampling. [bound] must be in [\[1, 2^32\]];
    [Invalid_argument] otherwise. *)

val int64 : t -> int64 -> int64
(** [int64 t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]: [float_of_int (bits t) /. 2^32 *. x]. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
