open Bamboo_types
module Sim = Bamboo_sim.Sim
module Machine = Bamboo_sim.Machine
module Netmodel = Bamboo_sim.Netmodel
module Rng = Bamboo_util.Rng
module Dist = Bamboo_util.Dist
module Json = Bamboo_util.Json
module Forest = Bamboo_forest.Forest
module Trace = Bamboo_obs.Trace
module Probe = Bamboo_obs.Probe
module Latency = Bamboo_obs.Latency
module Fault_engine = Bamboo_faults.Engine
module Registry = Bamboo_metrics.Registry
module Snapshot = Bamboo_metrics.Snapshot

type ledger_block = {
  l_height : int;
  l_hash : Ids.hash;
  l_view : int;
  l_txs : Tx.id list;
}

type ledger = ledger_block array

(* The committed chain as a flat, genesis-free array: one entry per height
   1..committed_height, lowest first. The committed prefix is contiguous
   by construction (prefix finalization), so every height is present. *)
let ledger_of_forest forest =
  Array.init (Forest.committed_height forest) (fun i ->
      match Forest.committed_at forest (i + 1) with
      | Some (b : Block.t) ->
          {
            l_height = b.height;
            l_hash = b.hash;
            l_view = b.view;
            l_txs = List.map (fun (tx : Tx.t) -> tx.Tx.id) b.txs;
          }
      | None -> assert false)

type result = {
  summary : Metrics.summary;
  series : (float * float) list;
  final_views : int array;
  committed_heights : int array;
  cpu_utilization : float array;
  consistent : bool;
  any_violation : bool;
  violations : bool array;
  ledgers : ledger array;
  decomposition : Latency.summary;
  probe : Probe.summary list;
  sim_events : int;
  metrics : Snapshot.t;
      (* merged aggregate metrics; [Snapshot.empty] unless the run was
         given an enabled registry *)
}

type tx_record = {
  target : int; (* replica the client sent the tx to; -1 = broadcast *)
  issued_at : float;
  client : int; (* logical client; 0 = open-loop *)
  mutable completed : bool;
  mutable counted : bool;
      (* already counted in the observer's committed-tx metrics; under
         broadcast submission a tx can legitimately appear in two
         committed blocks, but must be counted once *)
  (* Latency-decomposition stages, all measured at the target replica and
     only for single-target submissions; negative = not reached yet. *)
  mutable submit_wire : float; (* client -> replica one-way *)
  mutable ingest_wait : float; (* CPU-queue wait of the ingest charge *)
  mutable ingest_service : float;
  mutable arrived_at : float; (* entered the mempool *)
  mutable batched_at : float; (* batched into a proposal *)
  mutable propose_wait : float; (* CPU-queue wait of block creation *)
  mutable propose_service : float;
  mutable nic_ser : float; (* outbound NIC backlog of the broadcast *)
}

(* --- controlled scheduling (the bamboo_explore model checker) --- *)

type exec =
  | Exec_deliver of { src : int; dst : int; note : string }
  | Exec_timer of { replica : int }

type sched_view = {
  sv_nodes : Node.t array;
  sv_sim : Sim.t;
  sv_timers : unit -> (int * int * float) list;
}

type sched_hooks = {
  sh_controller : Sim.controller;
  sh_on_exec : exec -> unit;
}

(* Canonical order for the armed-timer snapshot handed to schedulers. *)
let compare_timers (r1, c1, a1) (r2, c2, a2) =
  match Int.compare r1 r2 with
  | 0 -> ( match Int.compare c1 c2 with 0 -> Float.compare a1 a2 | c -> c)
  | c -> c

type st = {
  config : Config.t;
  sim : Sim.t;
  net : Netmodel.t;
  machines : Machine.t array;
  nodes : Node.t array;
  metrics : Metrics.t;
  observer : int;
  records : (Tx.id, tx_record) Hashtbl.t;
  workload_rng : Rng.t;
  eng : Fault_engine.t;
  trace : Trace.t;
  spans : (Ids.hash, int) Hashtbl.t; (* block hash -> trace span id *)
  decomp : Latency.t;
  mutable next_seq : int;
  mutable reissue : client:int -> after:float -> unit;
      (* closed-loop continuation, installed by [run] *)
  armed : (int, int * int * float) Hashtbl.t;
      (* controlled mode: outstanding replica timers, timer id ->
         (replica, timer code, absolute expiry); feeds the state hash *)
  mutable next_timer : int;
  mutable notify : (exec -> unit) option;
      (* [Some f] switches the runtime into controlled-scheduling mode *)
}

let crashed st id = Fault_engine.node_down st.eng id

let span_of st hash =
  match Hashtbl.find_opt st.spans hash with
  | Some s -> s
  | None ->
      let s = Trace.fresh_span st.trace in
      Hashtbl.add st.spans hash s;
      s

(* CPU cost of validating an incoming message (charged at the receiver):
   a signature/QC check per the paper's t_CPU, plus per-transaction work
   for proposals. *)
let duplicate_cost = 1e-6 (* hash lookup to discard an echoed copy *)

let input_cost (cfg : Config.t) = function
  | Message.Proposal { block; _ } ->
      (2.0 *. cfg.cpu_op)
      +. (float_of_int (List.length block.Block.txs) *. cfg.cpu_per_tx)
  | Message.Vote _ -> cfg.cpu_op
  | Message.Timeout _ -> cfg.cpu_op
  | Message.Request_block _ -> duplicate_cost (* a hash lookup *)

(* CPU cost of producing an outgoing message (charged at the sender).
   Echo relays (Streamlet) re-send received bytes without signing: no
   CPU beyond the NIC time. *)
let output_cost (cfg : Config.t) ~self = function
  | Message.Proposal { block; _ } when block.Block.proposer = self ->
      cfg.cpu_op
      +. (float_of_int (List.length block.Block.txs) *. cfg.cpu_per_tx)
  | Message.Proposal _ -> 0.0
  | Message.Vote v -> if v.Vote.voter = self then cfg.cpu_op else 0.0
  | Message.Timeout tm ->
      if tm.Timeout_msg.sender = self then cfg.cpu_op else 0.0
  | Message.Request_block _ -> 0.0

let trace_receive st ~dst msg =
  let ts = Sim.now st.sim in
  match msg with
  | Message.Proposal { block; _ } ->
      Trace.emit st.trace ~ts ~node:dst ~view:block.Block.view
        ~span:(span_of st block.Block.hash)
        ~args:[ ("proposer", Json.Int block.Block.proposer) ]
        Trace.Proposal_received
  | Message.Vote v ->
      Trace.emit st.trace ~ts ~node:dst ~view:v.Vote.view
        ~span:(span_of st v.Vote.block)
        ~args:[ ("voter", Json.Int v.Vote.voter) ]
        Trace.Vote_received
  | Message.Timeout tm ->
      Trace.emit st.trace ~ts ~node:dst ~view:tm.Timeout_msg.view
        ~args:[ ("sender", Json.Int tm.Timeout_msg.sender) ]
        Trace.Timeout_received
  | Message.Request_block _ -> ()

let trace_sent st ~src msg =
  let ts = Sim.now st.sim in
  match msg with
  | Message.Vote v when v.Vote.voter = src ->
      Trace.emit st.trace ~ts ~node:src ~view:v.Vote.view
        ~span:(span_of st v.Vote.block) Trace.Vote_sent
  | Message.Timeout tm when tm.Timeout_msg.sender = src ->
      Trace.emit st.trace ~ts ~node:src ~view:tm.Timeout_msg.view
        Trace.Timeout_fired
  | Message.Proposal _ | Message.Vote _ | Message.Timeout _
  | Message.Request_block _ ->
      () (* original proposals are traced via the Proposed output *)

(* [bytes] is the precomputed wire size of [msg]: a broadcast serializes
   the same message to every peer, so the caller sizes it once and shares
   the result across all n-1 transmissions instead of re-walking the
   transaction list per recipient. *)
let rec transmit st ~src ~dst ~bytes msg =
  match st.notify with
  | Some notify -> transmit_controlled st notify ~src ~dst msg
  | None -> transmit_modeled st ~src ~dst ~bytes msg

(* Controlled-scheduling transmission: the model checker abstracts away
   the machine pipelines (NIC/CPU queues) — a delivery executes its
   receive handler synchronously at the instant the scheduler fires it.
   Pipeline contents would be invisible to the replica-state fingerprint,
   so keeping them would make distinct states hash-collide; the network
   delay distribution is still applied, and the message identity
   ({!Bamboo_types.Message.key}) tags the event for reordering. *)
and transmit_controlled st notify ~src ~dst msg =
  if not (crashed st src) then begin
    let now = Sim.now st.sim in
    if not (Netmodel.blocked st.net ~src ~dst) then begin
      let deliver delay =
        Sim.schedule_delivery st.sim ~delay ~src ~dst ~note:(Message.key msg)
          (fun () ->
            if not (crashed st dst) then begin
              notify (Exec_deliver { src; dst; note = Message.key msg });
              if Trace.enabled st.trace then trace_receive st ~dst msg;
              let outs = Node.handle st.nodes.(dst) (Receive msg) in
              process_outputs st dst outs
            end)
      in
      let base_drop = Netmodel.drops st.net ~now in
      let fault_drop = Netmodel.link_drops st.net ~src ~dst in
      if not (base_drop || fault_drop) then
        deliver (Netmodel.one_way st.net ~now ~src ~dst);
      List.iter deliver (Netmodel.link_copies st.net ~src ~dst)
    end
  end

and transmit_modeled st ~src ~dst ~bytes msg =
  if not (crashed st src) then begin
    Machine.nic_out st.machines.(src) ~bytes (fun () ->
        let now = Sim.now st.sim in
        (* Partitioned links eat the message after the sender has paid its
           NIC time — the bytes left the host and died on the wire. *)
        if not (Netmodel.blocked st.net ~src ~dst) then begin
          let deliver delay =
            Sim.schedule st.sim ~delay (fun () ->
                Machine.nic_in st.machines.(dst) ~bytes (fun () ->
                    if not (crashed st dst) then
                      let cost =
                        if Node.seen_before st.nodes.(dst) msg then
                          duplicate_cost
                        else input_cost st.config msg
                      in
                      Machine.cpu st.machines.(dst) ~duration:cost (fun () ->
                          if not (crashed st dst) then begin
                            if Trace.enabled st.trace then
                              trace_receive st ~dst msg;
                            let outs =
                              Node.handle st.nodes.(dst) (Receive msg)
                            in
                            process_outputs st dst outs
                          end)))
          in
          let base_drop = Netmodel.drops st.net ~now in
          let fault_drop = Netmodel.link_drops st.net ~src ~dst in
          if not (base_drop || fault_drop) then
            deliver (Netmodel.one_way st.net ~now ~src ~dst);
          (* Duplication faults deliver extra copies with independent
             delays; receivers discard them as echoed duplicates. *)
          List.iter deliver (Netmodel.link_copies st.net ~src ~dst)
        end)
  end

and complete_tx st replica (tx : Tx.t) =
  match Hashtbl.find_opt st.records tx.Tx.id with
  | Some rec_
    when (rec_.target = replica || rec_.target = -1) && not rec_.completed ->
      rec_.completed <- true;
      let response = Netmodel.client_rtt st.net ~now:(Sim.now st.sim) /. 2.0 in
      let done_at = Sim.now st.sim +. response in
      Metrics.record_latency st.metrics ~now:done_at ~issued_at:rec_.issued_at
        ~latency:(done_at -. rec_.issued_at);
      (* Stage decomposition, over the same measurement window as
         [record_latency]; only single-target submissions have a
         well-defined path (the target replica batches, proposes and
         commits the transaction itself). *)
      if
        rec_.target = replica
        && rec_.arrived_at >= 0.0
        && rec_.batched_at >= 0.0
        && rec_.issued_at >= st.config.Config.warmup
        && done_at < st.config.Config.runtime
      then begin
        let total = done_at -. rec_.issued_at in
        let client_wire = rec_.submit_wire +. response in
        let cpu_queue = rec_.ingest_wait +. rec_.propose_wait in
        let cpu_service = rec_.ingest_service +. rec_.propose_service in
        let mempool_wait = rec_.batched_at -. rec_.arrived_at in
        let nic_serialization = rec_.nic_ser in
        let consensus_wait =
          total -. client_wire -. cpu_queue -. cpu_service -. mempool_wait
          -. nic_serialization
        in
        Latency.record st.decomp
          {
            client_wire;
            cpu_queue;
            cpu_service;
            mempool_wait;
            nic_serialization;
            consensus_wait;
          }
          ~total
      end;
      if rec_.client > 0 then st.reissue ~client:rec_.client ~after:response
  | Some _ | None -> ()

and process_outputs st id outs =
  let sends = ref [] in
  let creation = ref 0.0 in
  let proposed = ref [] in
  let tracing = Trace.enabled st.trace in
  let now = Sim.now st.sim in
  List.iter
    (fun out ->
      match out with
      | Node.Send { dst; msg } ->
          creation := !creation +. output_cost st.config ~self:id msg;
          sends := (dst, msg, Message.wire_size msg) :: !sends;
          if tracing then trace_sent st ~src:id msg
      | Node.Broadcast msg ->
          creation := !creation +. output_cost st.config ~self:id msg;
          (* Encode/size once, share across all n-1 recipients. *)
          let bytes = Message.wire_size msg in
          for dst = 0 to st.config.n - 1 do
            if dst <> id then sends := (dst, msg, bytes) :: !sends
          done;
          if tracing then trace_sent st ~src:id msg
      | Node.Set_timer { timer; after } -> (
          (* Clock-skew faults stretch or shrink the replica's local timer
             durations; the factor is exactly 1.0 when no skew is active. *)
          let after = after *. Fault_engine.clock_factor st.eng id in
          match st.notify with
          | None ->
              Sim.schedule st.sim ~delay:after (fun () ->
                  if not (crashed st id) then
                    let outs = Node.handle st.nodes.(id) (Timer timer) in
                    process_outputs st id outs)
          | Some notify ->
              (* Controlled mode tracks armed timers so the model checker
                 can fold them into its state fingerprint; the code packs
                 the timer kind with its view. *)
              let code =
                match timer with
                | Node.View_timeout v -> 2 * v
                | Node.Propose_at v -> (2 * v) + 1
              in
              let tid = st.next_timer in
              st.next_timer <- tid + 1;
              Hashtbl.replace st.armed tid (id, code, now +. after);
              Sim.schedule st.sim ~delay:after (fun () ->
                  Hashtbl.remove st.armed tid;
                  if not (crashed st id) then begin
                    notify (Exec_timer { replica = id });
                    let outs = Node.handle st.nodes.(id) (Timer timer) in
                    process_outputs st id outs
                  end))
      | Node.Committed { blocks; trigger_view } ->
          if tracing then
            List.iter
              (fun (b : Block.t) ->
                Trace.emit st.trace ~ts:now ~node:id ~view:b.view
                  ~span:(span_of st b.hash)
                  ~args:
                    [
                      ("hash", Json.String (Ids.short b.hash));
                      ("height", Json.Int b.height);
                      ("txs", Json.Int (List.length b.txs));
                      ("triggerView", Json.Int trigger_view);
                    ]
                  Trace.Commit)
              blocks;
          List.iter
            (fun (b : Block.t) -> List.iter (complete_tx st id) b.txs)
            blocks;
          if id = st.observer then begin
            let count_fresh acc (tx : Tx.t) =
              match Hashtbl.find_opt st.records tx.Tx.id with
              | Some r when not r.counted ->
                  r.counted <- true;
                  acc + 1
              | Some _ -> acc
              | None -> acc + 1
            in
            let ntxs =
              List.fold_left
                (fun acc (b : Block.t) -> List.fold_left count_fresh acc b.txs)
                0 blocks
            in
            Metrics.record_commit st.metrics ~now:(Sim.now st.sim) ~ntxs
              ~nblocks:(List.length blocks)
              ~hashes:(List.map (fun (b : Block.t) -> b.hash) blocks);
            List.iter
              (fun (b : Block.t) ->
                Metrics.record_block_interval st.metrics ~now:(Sim.now st.sim)
                  ~views:(trigger_view - b.view + 1))
              blocks
          end
      | Node.Forked blocks ->
          if tracing then
            List.iter
              (fun (b : Block.t) ->
                Trace.emit st.trace ~ts:now ~node:id ~view:b.view
                  ~span:(span_of st b.hash)
                  ~args:
                    [
                      ("hash", Json.String (Ids.short b.hash));
                      ("height", Json.Int b.height);
                    ]
                  Trace.Fork_prune)
              blocks;
          if id = st.observer then
            Metrics.record_fork st.metrics ~now:(Sim.now st.sim)
              ~nblocks:(List.length blocks)
              ~hashes:(List.map (fun (b : Block.t) -> b.hash) blocks)
      | Node.Voted b ->
          if id = st.observer then
            Metrics.record_append st.metrics ~now:(Sim.now st.sim)
              ~hash:b.Block.hash
      | Node.Proposed b ->
          proposed := b :: !proposed;
          if tracing then begin
            let span = span_of st b.Block.hash in
            Trace.emit st.trace ~ts:now ~node:id ~view:b.Block.view ~span
              ~args:
                [
                  ("hash", Json.String (Ids.short b.Block.hash));
                  ("height", Json.Int b.Block.height);
                  ("txs", Json.Int (List.length b.Block.txs));
                ]
              Trace.Proposal_sent;
            if b.Block.txs <> [] then
              Trace.emit st.trace ~ts:now ~node:id ~view:b.Block.view ~span
                ~args:[ ("count", Json.Int (List.length b.Block.txs)) ]
                Trace.Tx_dequeue
          end
      | Node.Qc_formed qc ->
          if tracing then
            Trace.emit st.trace ~ts:now ~node:id ~view:qc.Qc.view
              ~span:(span_of st qc.Qc.block)
              ~args:[ ("height", Json.Int qc.Qc.height) ]
              Trace.Qc_formed
      | Node.Entered_view { view; reason } ->
          if tracing then
            Trace.emit st.trace ~ts:now ~node:id ~view
              ~args:[ ("reason", Json.String reason) ]
              Trace.View_change)
    outs;
  let sends = List.rev !sends in
  if Option.is_some st.notify then
    (* Controlled mode: no CPU charge, no NIC bookkeeping — outgoing
       messages go straight to the tagged delivery queue (see
       [transmit_controlled] for why pipelines are abstracted away). *)
    List.iter (fun (dst, msg, bytes) -> transmit st ~src:id ~dst ~bytes msg) sends
  else if sends <> [] || !creation > 0.0 then begin
    (* Stage bookkeeping for freshly batched transactions: they experience
       the whole of this flush's CPU charge (queueing plus service). *)
    (if !proposed <> [] then
       let cpu_wait =
         Float.max 0.0 (Machine.cpu_busy_until st.machines.(id) -. now)
       in
       List.iter
         (fun (b : Block.t) ->
           List.iter
             (fun (tx : Tx.t) ->
               match Hashtbl.find_opt st.records tx.Tx.id with
               | Some r when r.target = id ->
                   r.batched_at <- now;
                   r.propose_wait <- cpu_wait;
                   r.propose_service <- !creation;
                   r.nic_ser <- 0.0
               | Some _ | None -> ())
             b.txs)
         !proposed);
    Machine.cpu st.machines.(id) ~duration:!creation (fun () ->
        let nic_before =
          Float.max (Sim.now st.sim)
            (Machine.nic_out_busy_until st.machines.(id))
        in
        List.iter (fun (dst, msg, bytes) -> transmit st ~src:id ~dst ~bytes msg) sends;
        (if !proposed <> [] then
           let ser =
             Float.max 0.0
               (Machine.nic_out_busy_until st.machines.(id) -. nic_before)
           in
           List.iter
             (fun (b : Block.t) ->
               List.iter
                 (fun (tx : Tx.t) ->
                   match Hashtbl.find_opt st.records tx.Tx.id with
                   | Some r when r.target = id -> r.nic_ser <- ser
                   | Some _ | None -> ())
                 b.txs)
             !proposed))
  end

(* --- client-side transaction issue --- *)

(* [record_target = -1] means any replica's commit completes the tx
   (broadcast submission). *)
let record_tx st ~client ~record_target (tx : Tx.t) =
  Hashtbl.replace st.records tx.Tx.id
    {
      target = record_target;
      issued_at = Sim.now st.sim;
      client;
      completed = false;
      counted = false;
      submit_wire = 0.0;
      ingest_wait = 0.0;
      ingest_service = 0.0;
      arrived_at = -1.0;
      batched_at = -1.0;
      propose_wait = 0.0;
      propose_service = 0.0;
      nic_ser = 0.0;
    }

let send_batch st ~target txs =
  let now = Sim.now st.sim in
  let one_way = Netmodel.client_rtt st.net ~now /. 2.0 in
  Sim.schedule st.sim ~delay:one_way (fun () ->
      if not (crashed st target) then begin
        let arrival = Sim.now st.sim in
        let cost = float_of_int (List.length txs) *. st.config.cpu_per_tx in
        let wait =
          Float.max 0.0 (Machine.cpu_busy_until st.machines.(target) -. arrival)
        in
        Machine.cpu st.machines.(target) ~duration:cost (fun () ->
            if not (crashed st target) then begin
              let entered = Sim.now st.sim in
              List.iter
                (fun (tx : Tx.t) ->
                  match Hashtbl.find_opt st.records tx.Tx.id with
                  | Some r when r.target = target ->
                      r.submit_wire <- one_way;
                      r.ingest_wait <- wait;
                      r.ingest_service <- cost;
                      r.arrived_at <- entered
                  | Some _ | None -> ())
                txs;
              if Trace.enabled st.trace then
                Trace.emit st.trace ~ts:entered ~node:target
                  ~args:[ ("count", Json.Int (List.length txs)) ]
                  Trace.Tx_enqueue;
              let outs = Node.handle st.nodes.(target) (Submit txs) in
              process_outputs st target outs
            end)
      end)

let issue_txs st ~client txs_by_target =
  List.iter
    (fun (target, txs) ->
      List.iter (record_tx st ~client ~record_target:target) txs;
      send_batch st ~target txs)
    txs_by_target

let fresh_tx st ~client =
  let seq = st.next_seq in
  st.next_seq <- seq + 1;
  Tx.make ~client ~seq ~payload_len:st.config.psize

(* Open-loop Poisson arrivals, generated in 0.5 ms ticks to bound event
   count at high rates; all transactions of a tick share its timestamp. *)
let start_open_loop st ~rate ~broadcast =
  let tick = 0.0005 in
  let rec tick_fn () =
    if Sim.now st.sim < st.config.runtime then begin
      let k = Dist.poisson st.workload_rng ~mean:(rate *. tick) in
      if k > 0 then begin
        if broadcast then begin
          (* Every transaction goes to every replica; any replica's commit
             completes it. *)
          let txs = List.init k (fun _ -> fresh_tx st ~client:0) in
          List.iter (record_tx st ~client:0 ~record_target:(-1)) txs;
          for target = 0 to st.config.n - 1 do
            send_batch st ~target txs
          done
        end
        else begin
          let by_target = Hashtbl.create 8 in
          for _ = 1 to k do
            let target = Rng.int st.workload_rng st.config.n in
            let tx = fresh_tx st ~client:0 in
            let prev =
              match Hashtbl.find_opt by_target target with
              | None -> []
              | Some l -> l
            in
            Hashtbl.replace by_target target (tx :: prev)
          done;
          (* Walk targets in replica order rather than folding the table:
             the batch list's order reaches the trace sink via issue_txs,
             so it must not depend on bucket layout. *)
          issue_txs st ~client:0
            (List.filter_map
               (fun tgt ->
                 Option.map
                   (fun txs -> (tgt, txs))
                   (Hashtbl.find_opt by_target tgt))
               (List.init st.config.n Fun.id))
        end
      end;
      Sim.schedule st.sim ~delay:tick tick_fn
    end
  in
  Sim.schedule st.sim ~delay:0.0 tick_fn

let issue_one st ~client =
  if Sim.now st.sim < st.config.runtime then begin
    let target = Rng.int st.workload_rng st.config.n in
    let tx = fresh_tx st ~client in
    issue_txs st ~client [ (target, [ tx ]) ]
  end

let start_closed_loop st ~clients =
  st.reissue <-
    (fun ~client ~after ->
      Sim.schedule st.sim ~delay:after (fun () -> issue_one st ~client));
  for client = 1 to clients do
    (* Stagger initial issues across one millisecond. *)
    let jitter = Rng.float st.workload_rng 0.001 in
    Sim.schedule st.sim ~delay:jitter (fun () -> issue_one st ~client)
  done

(* --- observability wiring --- *)

let install_probe ~config ~sim ~machines ~trace ~registry =
  let interval = config.Config.probe_interval in
  if interval <= 0.0 then None
  else begin
    let p = Probe.create ~trace ~registry ~interval () in
    Array.iteri
      (fun i m ->
        Probe.add_gauge p ~node:i ~name:"cpu_queue_depth" (fun () ->
            float_of_int (Machine.queue_depth m `Cpu));
        Probe.add_gauge p ~node:i ~name:"nic_out_queue_depth" (fun () ->
            float_of_int (Machine.queue_depth m `Nic_out));
        Probe.add_gauge p ~node:i ~name:"nic_in_queue_depth" (fun () ->
            float_of_int (Machine.queue_depth m `Nic_in));
        (* Busy fraction per sampling window: seconds of work admitted to
           the queue since the last sample, over the window. Exceeds 1.0
           while a backlog builds — exactly the saturation signal the
           paper's L-shaped latency knee corresponds to. *)
        let last_cpu = ref 0.0 in
        Probe.add_gauge p ~node:i ~name:"cpu_utilization" (fun () ->
            let b = Machine.cpu_busy_seconds m in
            let d = b -. !last_cpu in
            last_cpu := b;
            d /. interval);
        let last_nic = ref 0.0 in
        Probe.add_gauge p ~node:i ~name:"nic_out_utilization" (fun () ->
            let b = Machine.nic_out_busy_seconds m in
            let d = b -. !last_nic in
            last_nic := b;
            d /. interval))
      machines;
    Probe.add_gauge p ~node:(-1) ~name:"event_heap" (fun () ->
        float_of_int (Sim.pending sim));
    let rec tick () =
      Probe.sample p ~now:(Sim.now sim);
      if Sim.now sim +. interval <= config.Config.runtime then
        Sim.schedule sim ~delay:interval tick
    in
    Sim.schedule sim ~delay:interval tick;
    Some p
  end

(* Publish the run's tallies into the metrics registry. The hot paths
   update plain per-run ints (always on, a few instructions each); the
   sharded registry is only written here, once per run, so enabling
   metrics costs nothing measurable on the simulation itself and the
   registry stays the single export surface. Skipped entirely for a
   disabled registry. *)
let publish_metrics reg ~sim ~net ~machines ~nodes ~sig_registry =
  if Registry.enabled reg then begin
    Registry.Counter.add (Registry.counter reg "sim_events_pushed")
      (Sim.pushed sim);
    Registry.Counter.add (Registry.counter reg "sim_events_fired")
      (Sim.fired sim);
    Registry.Gauge.set
      (Registry.gauge reg "sim_queue_peak_depth")
      (float_of_int (Sim.peak_depth sim));
    let ns = Netmodel.stats net in
    Registry.Counter.add (Registry.counter reg "net_sends") ns.Netmodel.sends;
    Registry.Counter.add
      (Registry.counter reg "net_base_drops")
      ns.Netmodel.base_drops;
    Registry.Counter.add
      (Registry.counter reg "net_fault_drops")
      ns.Netmodel.fault_drops;
    Registry.Counter.add
      (Registry.counter reg "net_duplicates")
      ns.Netmodel.duplicates;
    Registry.Counter.add
      (Registry.counter reg "net_fault_activations")
      ns.Netmodel.fault_activations;
    Registry.Counter.add (Registry.counter reg "crypto_signs")
      (Bamboo_crypto.Sig.signs sig_registry);
    Array.iteri
      (fun i m ->
        let labels = [ ("node", string_of_int i) ] in
        Registry.Counter.add
          (Registry.counter reg ~labels "machine_cpu_ops")
          (Machine.ops m `Cpu);
        Registry.Counter.add
          (Registry.counter reg ~labels "machine_nic_out_ops")
          (Machine.ops m `Nic_out);
        Registry.Counter.add
          (Registry.counter reg ~labels "machine_nic_in_ops")
          (Machine.ops m `Nic_in);
        Registry.Gauge.set
          (Registry.gauge reg ~labels "machine_cpu_peak_depth")
          (float_of_int (Machine.peak_depth m `Cpu));
        Registry.Gauge.set
          (Registry.gauge reg ~labels "machine_nic_out_peak_depth")
          (float_of_int (Machine.peak_depth m `Nic_out));
        Registry.Gauge.set
          (Registry.gauge reg ~labels "machine_nic_in_peak_depth")
          (float_of_int (Machine.peak_depth m `Nic_in)))
      machines;
    Array.iteri
      (fun i n ->
        let labels = [ ("node", string_of_int i) ] in
        Registry.Counter.add
          (Registry.counter reg ~labels "replica_commits")
          (Node.committed_count n);
        Registry.Counter.add
          (Registry.counter reg ~labels "replica_view_changes")
          (Node.view_changes n);
        Registry.Counter.add
          (Registry.counter reg ~labels "replica_timeouts_fired")
          (Node.timeouts_fired n);
        Registry.Counter.add
          (Registry.counter reg ~labels "replica_rejected_txs")
          (Node.rejected_txs n);
        let ms = Node.mempool_stats n in
        Registry.Counter.add
          (Registry.counter reg ~labels "mempool_batches")
          ms.Bamboo_mempool.Mempool.batches;
        Registry.Counter.add
          (Registry.counter reg ~labels "mempool_batched_txs")
          ms.Bamboo_mempool.Mempool.batched_txs;
        Registry.Counter.add
          (Registry.counter reg ~labels "mempool_rejected_full")
          ms.Bamboo_mempool.Mempool.rejected_full;
        Registry.Counter.add
          (Registry.counter reg ~labels "mempool_rejected_dup")
          ms.Bamboo_mempool.Mempool.rejected_dup;
        Registry.Gauge.set
          (Registry.gauge reg ~labels "mempool_peak_occupancy")
          (float_of_int ms.Bamboo_mempool.Mempool.peak_occupancy))
      nodes
  end

let run ~config ~workload ?(bucket = 0.5) ?observer ?(trace = Trace.null)
    ?(metrics = Registry.null) ?wrap_safety ?scheduler () =
  let mreg = metrics in
  (match Config.validate config with
  | Ok _ -> ()
  | Error e -> invalid_arg ("Runtime.run: " ^ e));
  let observer =
    match observer with
    | Some o -> o
    | None -> min config.Config.byz_no (config.Config.n - 1)
  in
  let master = Rng.create ~seed:config.Config.seed in
  let net_rng = Rng.split master in
  let workload_rng = Rng.split master in
  (* Split after the streams that predate the fault subsystem, so those
     streams (and hence an empty-schedule run) are unchanged. *)
  let fault_rng = Rng.split master in
  let sim = Sim.create () in
  let net =
    Netmodel.create ~rng:net_rng ~mu:config.Config.mu ~sigma:config.Config.sigma
      ~extra_mu:config.Config.extra_delay_mu
      ~extra_sigma:config.Config.extra_delay_sigma ()
  in
  if config.Config.loss > 0.0 then
    Netmodel.set_loss net ~rate:config.Config.loss;
  let registry =
    Bamboo_crypto.Sig.setup ~n:config.Config.n ~master:"bamboo-sim"
  in
  let machines =
    Array.init config.Config.n (fun _ ->
        Machine.create ~sim ~bandwidth:config.Config.bandwidth)
  in
  (* Machine service spans feed the trace's per-queue timeline threads;
     the hook stays uninstalled when tracing is off. *)
  if Trace.enabled trace then
    Array.iteri
      (fun i m ->
        Machine.set_service_hook m
          (Some
             (fun ~queue ~start ~duration ->
               Trace.service trace ~node:i ~queue ~start ~duration)))
      machines;
  let probe = install_probe ~config ~sim ~machines ~trace ~registry:mreg in
  let nodes =
    Array.init config.Config.n (fun self ->
        Node.create ~config ~self ~registry ~verify_sigs:false ~root:`Flat
          ?wrap_safety:
            (match wrap_safety with
            | None -> None
            | Some wrap -> Some (wrap self))
          ())
  in
  let metrics =
    Metrics.create ~warmup:config.Config.warmup ~horizon:config.Config.runtime
      ~bucket
  in
  let st =
    {
      config;
      sim;
      net;
      machines;
      nodes;
      metrics;
      observer;
      records = Hashtbl.create 4096;
      workload_rng;
      eng =
        Fault_engine.create ~n:config.Config.n ~rng:fault_rng
          ~schedule:config.Config.faults;
      trace;
      spans = Hashtbl.create 1024;
      decomp = Latency.create ();
      next_seq = 0;
      reissue = (fun ~client:_ ~after:_ -> ());
      armed = Hashtbl.create 64;
      next_timer = 0;
      notify = None;
    }
  in
  (* Controlled scheduling must be live before any replica boots so the
     very first proposal broadcast is already tagged and reorderable. *)
  (match scheduler with
  | None -> ()
  | Some mk ->
      let view =
        {
          sv_nodes = nodes;
          sv_sim = sim;
          sv_timers =
            (fun () ->
              List.sort compare_timers
                (List.map snd
                   (Bamboo_util.Tbl.sorted_bindings ~compare:Int.compare
                      st.armed)));
        }
      in
      let hooks = mk view in
      Sim.set_controller sim (Some hooks.sh_controller);
      st.notify <- Some hooks.sh_on_exec);
  (* Compile the fault schedule into simulator events. A recovering
     replica kept its pre-crash state but slept through its view timer;
     firing the timeout for its (stale) current view re-arms the
     pacemaker, broadcasts a timeout, and re-requests any blocks it was
     missing — from there the ordinary chain-sync path catches it up. *)
  Fault_engine.install st.eng ~sim ~net ~machines ~trace
    ~on_recover:(fun id ->
      let view = Node.current_view st.nodes.(id) in
      let outs = Node.handle st.nodes.(id) (Timer (Node.View_timeout view)) in
      process_outputs st id outs);
  (* Boot all replicas. *)
  Array.iteri (fun id node -> process_outputs st id (Node.start node)) nodes;
  (* Start the workload. *)
  (match workload with
  | Workload.Open_loop { rate; broadcast } ->
      start_open_loop st ~rate ~broadcast
  | Workload.Closed_loop { clients } -> start_closed_loop st ~clients);
  (* Record the observer's view at the warmup boundary. *)
  let first_view = ref 0 in
  Sim.schedule st.sim ~delay:config.Config.warmup (fun () ->
      first_view := Node.current_view nodes.(observer));
  Sim.run_until sim config.Config.runtime;
  Metrics.set_view_span metrics ~first:!first_view
    ~last:(Node.current_view nodes.(observer));
  let summary =
    Metrics.summarize metrics
      ~protocol:(Node.protocol_name nodes.(observer))
      ~rejected_txs:
        (Array.fold_left (fun acc n -> acc + Node.rejected_txs n) 0 nodes)
      ~safety_violation:(Node.safety_violation nodes.(observer))
  in
  let final_views = Array.map Node.current_view nodes in
  let committed_heights =
    Array.map (fun n -> Forest.committed_height (Node.forest n)) nodes
  in
  let cpu_utilization =
    Array.map
      (fun m -> Machine.cpu_busy_seconds m /. config.Config.runtime)
      machines
  in
  (* Cross-replica consistency: all committed chains must agree on the
     common prefix, checked hash-by-hash at each height (paper §III-A).
     The per-replica ledgers double as the [bamboo_check] oracle's input
     for the full agreement check (prefix compatibility + tx order). *)
  let ledgers = Array.map (fun n -> ledger_of_forest (Node.forest n)) nodes in
  let min_height =
    Array.fold_left (fun acc l -> min acc (Array.length l)) max_int ledgers
  in
  let consistent = ref true in
  for h = 0 to min_height - 1 do
    let reference = ledgers.(0).(h).l_hash in
    for i = 1 to config.Config.n - 1 do
      if not (String.equal ledgers.(i).(h).l_hash reference) then
        consistent := false
    done
  done;
  let violations = Array.map Node.safety_violation nodes in
  let any_violation = Array.exists Fun.id violations in
  publish_metrics mreg ~sim ~net ~machines ~nodes ~sig_registry:registry;
  {
    summary;
    series = Metrics.throughput_series metrics;
    final_views;
    committed_heights;
    cpu_utilization;
    consistent = !consistent;
    any_violation;
    violations;
    ledgers;
    decomposition = Latency.summarize st.decomp;
    probe = (match probe with None -> [] | Some p -> Probe.summaries p);
    sim_events = Sim.fired sim;
    metrics = Snapshot.of_registry mreg;
  }
