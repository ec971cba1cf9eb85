(** Fixed-size work pool over OCaml 5 domains.

    [map] fans a list of independent tasks out to worker domains and
    returns the results in submission order, so a parallel run is
    indistinguishable from a sequential [List.map] as long as the task
    function itself is deterministic and shares no mutable state across
    tasks. With [jobs = 1] no domain is spawned and the tasks run inline
    on the calling domain, bit-identical to [List.map]. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: the parallelism the hardware
    supports (1 on a single-core machine). *)

val map :
  jobs:int -> ?probe:(int -> float -> unit) -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element of [xs], running up to
    [jobs] applications concurrently (never more than [List.length xs]
    domains), and returns the results in the order of [xs].

    [probe], when given, is called as [probe i seconds] after each
    completed task with the task's submission index and its wall-clock
    latency — on the worker domain that ran the task, so it must be
    domain-safe (the metrics registry's handles are). Tasks that
    raise are not probed. The probe observes scheduling, it cannot affect
    results.

    If any application raises, the first exception (in completion order)
    is re-raised on the calling domain after all workers have stopped
    picking up new tasks. Raises [Invalid_argument] if [jobs < 1]. *)
