(** Consensus-level trace events for {!Node} outputs, emitted the same way
    by the simulator ({!Runtime}) and the threaded deployment runtime
    ({!Threaded_runtime}), so one set of hash-keyed monitors
    ({!Bamboo_check.Monitor.check_trace}) judges both planes. *)

val output :
  Bamboo_obs.Trace.t ->
  ?span:(Bamboo_types.Ids.hash -> int) ->
  ts:float ->
  node:int ->
  Node.output ->
  unit
(** Traces one output of replica [node]: [Vote_sent] and [Timeout_fired]
    for the replica's own votes and timeouts (relayed copies are not
    traced), [Proposal_sent] (then [Tx_dequeue] if it carries txs),
    [Qc_formed], one [Commit] per committed block, one [Fork_prune] per
    pruned block, and [View_change]; other outputs emit nothing. Every
    block-bearing event names its block by short hash in a ["hash"] arg.
    [span] maps a block hash to the span id correlating that block's
    events; without it events carry span 0. *)
