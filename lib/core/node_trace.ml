open Bamboo_types
module Trace = Bamboo_obs.Trace
module Json = Bamboo_util.Json

let output trace ?span ~ts ~node out =
  let span_of h = match span with Some f -> f h | None -> 0 in
  let hash h = ("hash", Json.String (Ids.short h)) in
  let sent = function
    | Message.Vote v when v.Vote.voter = node ->
        Trace.emit trace ~ts ~node ~view:v.Vote.view
          ~span:(span_of v.Vote.block)
          ~args:[ hash v.Vote.block ]
          Trace.Vote_sent
    | Message.Timeout tm when tm.Timeout_msg.sender = node ->
        Trace.emit trace ~ts ~node ~view:tm.Timeout_msg.view
          Trace.Timeout_fired
    | Message.Proposal _ | Message.Vote _ | Message.Timeout _
    | Message.Request_block _ ->
        () (* original proposals are traced via the Proposed output *)
  in
  match out with
  | Node.Send { msg; _ } | Node.Broadcast msg -> sent msg
  | Node.Committed { blocks; trigger_view } ->
      List.iter
        (fun (b : Block.t) ->
          Trace.emit trace ~ts ~node ~view:b.view ~span:(span_of b.hash)
            ~args:
              [
                hash b.hash;
                ("height", Json.Int b.height);
                ("txs", Json.Int (Body.length b.body));
                ("triggerView", Json.Int trigger_view);
              ]
            Trace.Commit)
        blocks
  | Node.Proposed b ->
      let txs = Body.length b.body in
      Trace.emit trace ~ts ~node ~view:b.view ~span:(span_of b.hash)
        ~args:[ hash b.hash; ("height", Json.Int b.height); ("txs", Json.Int txs) ]
        Trace.Proposal_sent;
      if txs > 0 then
        Trace.emit trace ~ts ~node ~view:b.view ~span:(span_of b.hash)
          ~args:[ ("count", Json.Int txs) ]
          Trace.Tx_dequeue
  | Node.Forked blocks ->
      List.iter
        (fun (b : Block.t) ->
          Trace.emit trace ~ts ~node ~view:b.view ~span:(span_of b.hash)
            ~args:[ hash b.hash; ("height", Json.Int b.height) ]
            Trace.Fork_prune)
        blocks
  | Node.Qc_formed qc ->
      Trace.emit trace ~ts ~node ~view:qc.Qc.view ~span:(span_of qc.Qc.block)
        ~args:[ hash qc.Qc.block; ("height", Json.Int qc.Qc.height) ]
        Trace.Qc_formed
  | Node.Entered_view { view; reason } ->
      Trace.emit trace ~ts ~node ~view
        ~args:[ ("reason", Json.String reason) ]
        Trace.View_change
  | Node.Set_timer _ | Node.Voted _ -> ()
