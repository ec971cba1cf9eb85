(** Probability distributions and order statistics over {!Rng}.

    These are the stochastic primitives of both the simulator (link latency,
    Poisson arrivals) and the analytic model of Section V of the paper
    (expected order statistics of normal samples for quorum delay [t_Q]). *)

val uniform : Rng.t -> lo:float -> hi:float -> float

val normal : Rng.t -> mu:float -> sigma:float -> float
(** Box-Muller transform. *)

val normal_pos : Rng.t -> mu:float -> sigma:float -> float
(** [normal] truncated below at 0; used for physical delays. *)

val exponential : Rng.t -> rate:float -> float
(** Inverse-CDF sampling; [rate] must be finite and positive
    ([Invalid_argument] otherwise). *)

val poisson : Rng.t -> mean:float -> int
(** Knuth's method for small means, normal approximation above 60.
    [mean] must be finite and non-negative ([Invalid_argument]
    otherwise). *)

val order_statistic_mean :
  Rng.t -> n:int -> k:int -> mu:float -> sigma:float -> trials:int -> float
(** [order_statistic_mean ~n ~k ~mu ~sigma ~trials] estimates by Monte Carlo
    the expected value of the [k]-th smallest (1-based) of [n] i.i.d.
    normal(mu, sigma) samples. This is the quorum-collection delay [t_Q] of
    the paper's Section V-B2 with [n = N-1] and [k = 2N/3 - 1]. *)

val normal_cdf : float -> float
(** Standard normal CDF via the Abramowitz-Stegun erf approximation
    (absolute error < 1.5e-7). *)

val order_statistic_mean_numeric :
  n:int -> k:int -> mu:float -> sigma:float -> float
(** Same expectation as {!order_statistic_mean} but by numerical
    integration of [E X_(k) = integral of x f_(k)(x) dx]; deterministic and
    used to cross-check the Monte Carlo estimate. *)
