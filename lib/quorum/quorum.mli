(** The quorum system (paper §III-E): accumulates votes into quorum
    certificates via the [voted]/[certified] pair of interfaces, and
    timeout messages into timeout certificates.

    For [n = 3f+1] replicas the quorum size is [2f+1]; for other [n] it is
    [ceil(2n/3)] rounded to tolerate [f = floor((n-1)/3)] faults. Duplicate
    votes from the same replica are ignored, as are votes and timeouts
    from ids outside \[0, n). Each slot keeps its voters as an n-bit set
    with a count, so recording a vote costs O(1). Aggregation state below the
    current prune view can be garbage-collected with {!gc}. *)

open Bamboo_types

type t

val create : n:int -> t
(** [create ~n] for a cluster of [n] replicas. *)

val n : t -> int

val quorum_size : t -> int
(** [2f+1] where [f = (n-1)/3]. *)

val fault_bound : t -> int
(** [f = (n-1)/3]. *)

val voted : t -> Vote.t -> Qc.t option
(** [voted t v] records the vote. Returns [Some qc] exactly once: at the
    moment the quorum threshold for [(v.block, v.view)] is reached. Later
    votes for an already-certified block return [None]. *)

val certified : t -> block:Ids.hash -> view:Ids.view -> Qc.t option
(** The QC for the given block/view if the threshold has been reached
    (also after {!voted} returned it). *)

val vote_count : t -> block:Ids.hash -> view:Ids.view -> int

val timed_out : t -> Timeout_msg.t -> Tcert.t option
(** Analogue of {!voted} for timeout messages: returns the TC exactly once
    when the quorum of timeouts for the view is assembled. *)

val tc_for : t -> view:Ids.view -> Tcert.t option

val timeout_count : t -> view:Ids.view -> int
(** Distinct replicas whose timeout for the view has been recorded. *)

val gc : t -> below_view:Ids.view -> unit
(** Drops all aggregation state for views strictly below [below_view]. *)

val fingerprint : t -> Buffer.t -> unit
(** Appends a canonical digest of the aggregation state (sorted slots,
    sorted voter/sender sets, certificate presence) to [buf]; independent
    of vote/timeout arrival order. Used by the [bamboo_explore] model
    checker's state hashing. *)
