(** Aggregate metrics: counters, gauges and HDR-style log-bucketed
    histograms in one registry.

    The registry is a per-run value (like [Trace.t]) — create one per
    simulation or benchmark run and pass it down; there is no ambient
    global. Each registered metric owns one cell. Registration, recording
    and {!snapshot} all take the registry's one mutex, so counts are exact
    under parallel domains and systhreads alike. Writers record a few
    samples per run or per experiment cell, so the lock is uncontended.

    Recording is allocation-free: against a disabled registry (e.g.
    {!null}) every record operation is one load and one branch, and
    against an enabled one it is a lock, a few stores and an unlock.

    Metrics are observe-only: nothing recorded here feeds back into
    simulation state, so enabling metrics cannot change simulation output. *)

type t

val create : ?enabled:bool -> unit -> t
(** [create ()] makes an enabled registry. [create ~enabled:false ()] makes
    a registry whose record operations are no-ops and whose {!snapshot} is
    empty. *)

val null : t
(** A shared disabled registry: the default everywhere metrics are
    optional. Registration against it returns inert handles. *)

val enabled : t -> bool

(** {1 Handles}

    Registration (see {!counter}, {!gauge}, {!histogram}) is idempotent on
    (name, labels) and intended for setup paths; handles are cheap records
    made for the hot path. *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  (** Records a sample: updates last/min/max/sum/count. *)
end

module Histogram : sig
  type t

  val observe : t -> int -> unit
  (** Records a non-negative integer value (negatives clamp to 0). The unit
      is the caller's contract — by convention [*_ns] metrics record
      nanoseconds. *)

  val observe_many : t -> int -> count:int -> unit
  (** [observe_many h v ~count] records [count] observations of [v] under
      one lock: the same snapshot as [count] calls of [observe h v], in
      constant time. Raises [Invalid_argument] if [count] is negative. *)

  val observe_s : t -> float -> unit
  (** [observe_s h secs] records [secs] converted to nanoseconds. *)
end

(** {1 Registration}

    Names must be snake_case (a lowercase letter, then lowercase letters,
    digits or underscores) — enforced here at runtime
    and by the [exhaustive-metric-names] lint at the source level (the lint
    additionally requires literal names to be unique across [lib/]).
    Optional [labels] distinguish instances of one logical metric (e.g.
    [("node", "3")]); label order is canonicalised. Registering the same
    (name, labels) twice returns a handle to the same metric; re-registering
    under a different kind raises [Invalid_argument]. *)

val counter : t -> ?labels:(string * string) list -> string -> Counter.t
val gauge : t -> ?labels:(string * string) list -> string -> Gauge.t
val histogram : t -> ?labels:(string * string) list -> string -> Histogram.t

(** {1 Reading} *)

val snapshot : t -> Snapshot.t
(** Every registered metric, sorted by (name, labels) so output is
    deterministic; {!Snapshot.empty} for a disabled registry. This is the
    registry's only read-out. *)
