(** Replica-state fingerprinting for the bounded model checker.

    A fingerprint condenses the complete behavior-relevant system state —
    every replica's engine state ({!Bamboo.Node.fingerprint}), the
    in-flight controlled deliveries, and the armed timers — into one
    SHA-256 hex digest. Two executions whose fingerprints collide are in
    the same abstract state and have identical futures under identical
    subsequent schedules, so the DFS strategy prunes re-visited states.

    Timestamps are digested relative to [now] (as exact float bit
    patterns), so the same pending-work pattern reached at different
    absolute times hashes identically; in-flight deliveries are
    content-sorted to erase heap insertion order. *)

val fingerprint :
  nodes:Bamboo.Node.t array ->
  inflight:(float * int * int * string) list ->
  timers:(int * int * float) list ->
  now:float ->
  string
(** [inflight] is {!Bamboo_sim.Sim.pending_deliveries} ([(at, src, dst,
    note)]); [timers] is the runtime's armed-timer snapshot
    ([(replica, code, expiry)], already canonically sorted). Both are read
    from the typed events pending in the simulator's heap, so nothing
    outside the heap has to mirror it. *)
