(** Client workload descriptors (the benchmarker of paper §III-D).

    Two generation modes:
    - {e open loop}: transactions arrive in a Poisson process with a fixed
      aggregate rate, each sent to a uniformly random replica — the
      arrival model of the paper's Section V analysis;
    - {e closed loop}: a fixed number of concurrent clients (Table I
      [concurrency]) each keep exactly one transaction outstanding,
      matching how the paper's benchmark raises load "by increasing the
      concurrency level of the clients until the system is saturated". *)

type t =
  | Open_loop of { rate : float; broadcast : bool }
      (** Aggregate arrivals, tx/s; with [broadcast], clients send each
          transaction to {e every} replica instead of one (the design
          choice of paper §V-E), relying on mempool deduplication. *)
  | Closed_loop of { clients : int }

val open_loop : ?broadcast:bool -> rate:float -> unit -> t
(** Rate 0 is allowed and means no client arrivals at all — consensus on
    empty blocks only, the load model of the [bamboo_explore] cells.
    Raises [Invalid_argument] on negative, NaN or infinite rates. *)

val closed_loop : clients:int -> t

val describe : t -> string
