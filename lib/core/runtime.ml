open Bamboo_types
module Sim = Bamboo_sim.Sim
module Machine = Bamboo_sim.Machine
module Netmodel = Bamboo_sim.Netmodel
module Rng = Bamboo_util.Rng
module Dist = Bamboo_util.Dist
module Json = Bamboo_util.Json
module Forest = Bamboo_forest.Forest
module Trace = Bamboo_obs.Trace
module Fault_engine = Bamboo_faults.Engine
module Registry = Bamboo_metrics.Registry
module Snapshot = Bamboo_metrics.Snapshot

type result = {
  summary : Metrics.summary;
  series : (float * float) list;
  final_views : int array;
  committed_heights : int array;
  cpu_utilization : float array;
  consistent : bool;
  any_violation : bool;
  violations : bool array;
  agreement : Agreement.verdict;
  decomposition : Metrics.decomposition;
  probe : Snapshot.metric list;
  sim_events : int;
  metrics : Snapshot.t;
      (* merged aggregate metrics; [Snapshot.empty] unless the run was
         given an enabled registry *)
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

(* The code packs a timer's kind with its view. *)
let timer_code = function
  | Node.View_timeout v -> 2 * v
  | Node.Propose_at v -> (2 * v) + 1

(* --- simulator events --- *)

(* Where a message hop stands in the paper's machine model: sent through
   the sender's outbound NIC, then on the wire, then through the
   receiver's inbound NIC, then on its CPU. Each event marks the end of
   one stage. *)
type stage = Nic_out_done | Arrived | Nic_in_done | Deliver

(* One [Hop] per recipient of a message, pushed again at each stage; the
   stage is mutable so one heap value travels the whole path. A [Flush]
   is a replica's output batch whose CPU charge (signing, batching) has
   completed: its sends go out then. *)
type Sim.event +=
  | Hop of {
      src : int;
      dst : int;
      bytes : int;
      msg : Message.t;
      mutable stage : stage;
    }
  | Replica_timer of { replica : int; timer : Node.timer; expiry : float }
  | Flush of {
      src : int;
      sends : (int * Message.t * int) list;
      proposed : Block.t list;
    }

type st = {
  config : Config.t;
  sim : Sim.t;
  net : Netmodel.t;
  machines : Machine.t array;
  nodes : Node.t array;
  metrics : Metrics.t;
  observer : int;
  records : Tx_records.t;
      (* latency-decomposition stamps are measured at the target replica
         and only for single-target submissions *)
  workload_rng : Rng.t;
  eng : Fault_engine.t;
  trace : Trace.t;
  spans : (Ids.hash, int) Hashtbl.t; (* block hash -> trace span id *)
  agreement : Agreement.t;
  mutable next_seq : int;
  mutable reissue : client:int -> after:float -> unit;
      (* closed-loop continuation, installed by [run] *)
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
      +. (float_of_int (Body.length block.Block.body) *. cfg.cpu_per_tx)
  | Message.Vote _ -> cfg.cpu_op
  | Message.Timeout _ -> cfg.cpu_op
  | Message.Request_block _ -> duplicate_cost (* a hash lookup *)

(* CPU cost of producing an outgoing message (charged at the sender).
   Echo relays (Streamlet) re-send received bytes without signing: no
   CPU beyond the NIC time. *)
let output_cost (cfg : Config.t) ~self = function
  | Message.Proposal { block; _ } when block.Block.proposer = self ->
      cfg.cpu_op
      +. (float_of_int (Body.length block.Block.body) *. cfg.cpu_per_tx)
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

(* Applies [f] to the record slot of each of [b]'s txs that was sent to
   [target] and has not completed: the txs whose stage stamps a proposal
   by [target] sets. *)
let iter_own_slots r (b : Block.t) ~target f =
  let body = b.body in
  for i = 0 to Body.length body - 1 do
    let slot =
      Tx_records.find r ~client:(Body.client body i) ~seq:(Body.seq body i)
    in
    if
      slot >= 0
      && Tx_records.target r slot = target
      && not (Tx_records.completed r slot)
    then f slot
  done

(* [bytes] is the precomputed wire size of [msg]: a broadcast serializes
   the same message to every peer, so the caller sizes it once and shares
   the result across all n-1 transmissions instead of re-walking the
   block body per recipient.

   In controlled-scheduling mode (the model checker) a message skips the
   machine pipelines: it goes on the wire at once and its delivery runs
   the receive handler the instant the scheduler fires it. Pipeline
   contents are invisible to the replica-state fingerprint, so modelling
   them would make distinct states collide. *)
let rec transmit st ~src ~dst ~bytes msg =
  if not (crashed st src) then begin
    let hop = Hop { src; dst; bytes; msg; stage = Nic_out_done } in
    match st.notify with
    | Some _ -> wire st hop
    | None ->
        let m = st.machines.(src) in
        let at =
          Machine.admit m `Nic_out ~now:(Sim.now st.sim)
            ~duration:(Machine.wire_time m ~bytes)
        in
        Sim.post_at st.sim ~at hop
  end

(* The wire. A partitioned link eats the message after the sender has
   paid its NIC time — the bytes left the host and died on the wire.
   Otherwise the message may be lost, and duplication faults deliver
   extra copies with independent delays; receivers discard them as
   echoed duplicates. The hop itself carries the primary copy. *)
and wire st ev =
  match ev with
  | Hop ({ src; dst; bytes; msg; _ } as h) ->
      let now = Sim.now st.sim in
      if not (Netmodel.blocked st.net ~src ~dst) then begin
        let stage = if Option.is_some st.notify then Deliver else Arrived in
        let base_drop = Netmodel.drops st.net ~now in
        let fault_drop = Netmodel.link_drops st.net ~src ~dst in
        if not (base_drop || fault_drop) then begin
          h.stage <- stage;
          Sim.post st.sim ~delay:(Netmodel.one_way st.net ~now ~src ~dst) ev
        end;
        List.iter
          (fun delay ->
            Sim.post st.sim ~delay (Hop { src; dst; bytes; msg; stage }))
          (Netmodel.link_copies st.net ~src ~dst)
      end
  | _ -> invalid_arg "Runtime.wire: not a hop"

and fire st ev =
  match ev with
  | Hop ({ src; dst; bytes; msg; _ } as h) -> (
      let m = st.machines.(dst) in
      match h.stage with
      | Nic_out_done ->
          Machine.release st.machines.(src) `Nic_out;
          wire st ev
      | Arrived ->
          h.stage <- Nic_in_done;
          let at =
            Machine.admit m `Nic_in ~now:(Sim.now st.sim)
              ~duration:(Machine.wire_time m ~bytes)
          in
          Sim.post_at st.sim ~at ev
      | Nic_in_done ->
          Machine.release m `Nic_in;
          if not (crashed st dst) then begin
            let cost =
              if Node.seen_before st.nodes.(dst) msg then duplicate_cost
              else input_cost st.config msg
            in
            h.stage <- Deliver;
            let at = Machine.admit m `Cpu ~now:(Sim.now st.sim) ~duration:cost in
            Sim.post_at st.sim ~at ev
          end
      | Deliver ->
          let live = not (crashed st dst) in
          (match st.notify with
          | None -> Machine.release m `Cpu
          | Some notify ->
              if live then notify (Exec_deliver { src; dst; note = Message.key msg }));
          if live then begin
            if Trace.enabled st.trace then trace_receive st ~dst msg;
            process_outputs st dst (Node.handle st.nodes.(dst) (Receive msg))
          end)
  | Replica_timer { replica; timer; _ } ->
      if not (crashed st replica) then begin
        (match st.notify with
        | Some notify -> notify (Exec_timer { replica })
        | None -> ());
        process_outputs st replica (Node.handle st.nodes.(replica) (Timer timer))
      end
  | Flush { src; sends; proposed } ->
      let m = st.machines.(src) in
      Machine.release m `Cpu;
      let nic_before = Float.max (Sim.now st.sim) (Machine.busy_until m `Nic_out) in
      List.iter (fun (dst, msg, bytes) -> transmit st ~src ~dst ~bytes msg) sends;
      if proposed <> [] then begin
        let ser = Float.max 0.0 (Machine.busy_until m `Nic_out -. nic_before) in
        let r = st.records in
        List.iter
          (fun b ->
            iter_own_slots r b ~target:src (fun slot ->
                Tx_records.set r slot Nic_ser ser))
          proposed
      end
  | _ -> invalid_arg "Runtime.fire: not a runtime event"

and complete_tx st replica ~client ~seq =
  let r = st.records in
  let slot = Tx_records.find r ~client ~seq in
  if slot >= 0 then begin
    let target = Tx_records.target r slot in
    if (target = replica || target = -1) && not (Tx_records.completed r slot)
    then begin
      (* Every stamp is read before [set_completed]: completing the last
         pending slot of a chunk may release the chunk's stamps. *)
      let issued_at = Tx_records.stamp r slot Issued_at in
      let response = Netmodel.client_rtt st.net ~now:(Sim.now st.sim) /. 2.0 in
      let done_at = Sim.now st.sim +. response in
      (* Stage decomposition, for the txs whose latency counted: only
         single-target submissions have a well-defined path (the target
         replica batches, proposes and commits the transaction itself). *)
      if
        Metrics.record_latency st.metrics ~now:done_at ~issued_at
          ~latency:(done_at -. issued_at)
        && target = replica
        && Tx_records.stamp r slot Arrived_at >= 0.0
        && Tx_records.stamp r slot Batched_at >= 0.0
      then begin
        let client_wire = Tx_records.stamp r slot Submit_wire +. response in
        let cpu_queue =
          Tx_records.stamp r slot Ingest_wait
          +. Tx_records.stamp r slot Propose_wait
        in
        let cpu_service =
          Tx_records.stamp r slot Ingest_service
          +. Tx_records.stamp r slot Propose_service
        in
        let mempool_wait =
          Tx_records.stamp r slot Batched_at -. Tx_records.stamp r slot Arrived_at
        in
        Metrics.record_stages st.metrics ~now:done_at ~issued_at ~client_wire
          ~cpu_queue ~cpu_service ~mempool_wait
          ~nic_serialization:(Tx_records.stamp r slot Nic_ser)
      end;
      Tx_records.set_completed r slot;
      let client = Tx_records.client r slot in
      if client > 0 then st.reissue ~client ~after:response
    end
  end

and process_outputs st id outs =
  let sends = ref [] in
  let creation = ref 0.0 in
  let proposed = ref [] in
  let tracing = Trace.enabled st.trace in
  let now = Sim.now st.sim in
  List.iter
    (fun out ->
      if tracing then
        Node_trace.output st.trace ~span:(span_of st) ~ts:now ~node:id out;
      match out with
      | Node.Send { dst; msg } ->
          creation := !creation +. output_cost st.config ~self:id msg;
          sends := (dst, msg, Message.wire_size msg) :: !sends
      | Node.Broadcast msg ->
          creation := !creation +. output_cost st.config ~self:id msg;
          (* Encode/size once, share across all n-1 recipients. *)
          let bytes = Message.wire_size msg in
          for dst = 0 to st.config.n - 1 do
            if dst <> id then sends := (dst, msg, bytes) :: !sends
          done
      | Node.Set_timer { timer; after } ->
          (* Clock-skew faults stretch or shrink the replica's local timer
             durations; the factor is exactly 1.0 when no skew is active. *)
          let after = after *. Fault_engine.clock_factor st.eng id in
          Sim.post st.sim ~delay:after
            (Replica_timer { replica = id; timer; expiry = now +. after })
      | Node.Committed { blocks; trigger_view } ->
          List.iter
            (fun (b : Block.t) ->
              Agreement.commit st.agreement ~replica:id b;
              for i = 0 to Body.length b.body - 1 do
                complete_tx st id ~client:(Body.client b.body i)
                  ~seq:(Body.seq b.body i)
              done)
            blocks;
          if id = st.observer then begin
            let r = st.records in
            let count_fresh acc (b : Block.t) =
              let fresh = ref acc in
              for i = 0 to Body.length b.body - 1 do
                let slot =
                  Tx_records.find r ~client:(Body.client b.body i)
                    ~seq:(Body.seq b.body i)
                in
                if slot < 0 then incr fresh
                else if not (Tx_records.counted r slot) then begin
                  Tx_records.set_counted r slot;
                  incr fresh
                end
              done;
              !fresh
            in
            let ntxs = List.fold_left count_fresh 0 blocks in
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
          if id = st.observer then
            Metrics.record_fork st.metrics ~now:(Sim.now st.sim)
              ~nblocks:(List.length blocks)
              ~hashes:(List.map (fun (b : Block.t) -> b.hash) blocks)
      | Node.Voted b ->
          if id = st.observer then
            Metrics.record_append st.metrics ~now:(Sim.now st.sim)
              ~hash:b.Block.hash
      | Node.Proposed b -> proposed := b :: !proposed
      | Node.Qc_formed _ | Node.Entered_view _ -> ())
    outs;
  let sends = List.rev !sends in
  if Option.is_some st.notify then
    (* Controlled mode: no CPU charge, no NIC bookkeeping (see
       [transmit]). *)
    List.iter (fun (dst, msg, bytes) -> transmit st ~src:id ~dst ~bytes msg) sends
  else if sends <> [] || !creation > 0.0 then begin
    let m = st.machines.(id) in
    (* Stage bookkeeping for freshly batched transactions: they experience
       the whole of this flush's CPU charge (queueing plus service). *)
    (if !proposed <> [] then
       let cpu_wait = Float.max 0.0 (Machine.busy_until m `Cpu -. now) in
       let r = st.records in
       List.iter
         (fun b ->
           iter_own_slots r b ~target:id (fun slot ->
               Tx_records.set r slot Batched_at now;
               Tx_records.set r slot Propose_wait cpu_wait;
               Tx_records.set r slot Propose_service !creation;
               Tx_records.set r slot Nic_ser 0.0))
         !proposed);
    let at = Machine.admit m `Cpu ~now ~duration:!creation in
    Sim.post_at st.sim ~at (Flush { src = id; sends; proposed = !proposed })
  end

(* A hop at its last stage is a delivery a controller may reorder. Only
   the model checker installs a controller, and in its mode every hop
   goes straight to [Deliver]. *)
let delivery = function
  | Hop { src; dst; msg; stage = Deliver; _ } -> Some (src, dst, Message.key msg)
  | _ -> None

(* --- client-side transaction issue --- *)

(* [record_target = -1] means any replica's commit completes the tx
   (broadcast submission). *)
let record_tx st ~record_target (tx : Tx.t) =
  Tx_records.record st.records tx ~target:record_target
    ~issued_at:(Sim.now st.sim)

let send_batch st ~target txs =
  let now = Sim.now st.sim in
  let one_way = Netmodel.client_rtt st.net ~now /. 2.0 in
  Sim.schedule st.sim ~delay:one_way (fun () ->
      if not (crashed st target) then begin
        let arrival = Sim.now st.sim in
        let cost = float_of_int (List.length txs) *. st.config.cpu_per_tx in
        let m = st.machines.(target) in
        let wait = Float.max 0.0 (Machine.busy_until m `Cpu -. arrival) in
        let at = Machine.admit m `Cpu ~now:arrival ~duration:cost in
        Sim.schedule_at st.sim ~at (fun () ->
            Machine.release m `Cpu;
            if not (crashed st target) then begin
              let entered = Sim.now st.sim in
              let r = st.records in
              List.iter
                (fun (tx : Tx.t) ->
                  let slot =
                    Tx_records.find r ~client:tx.id.client ~seq:tx.id.seq
                  in
                  if
                    slot >= 0
                    && Tx_records.target r slot = target
                    && not (Tx_records.completed r slot)
                  then begin
                    Tx_records.set r slot Submit_wire one_way;
                    Tx_records.set r slot Ingest_wait wait;
                    Tx_records.set r slot Ingest_service cost;
                    Tx_records.set r slot Arrived_at entered
                  end)
                txs;
              if Trace.enabled st.trace then
                Trace.emit st.trace ~ts:entered ~node:target
                  ~args:[ ("count", Json.Int (List.length txs)) ]
                  Trace.Tx_enqueue;
              let outs = Node.handle st.nodes.(target) (Submit txs) in
              process_outputs st target outs
            end)
      end)

let issue_txs st txs_by_target =
  List.iter
    (fun (target, txs) ->
      List.iter (record_tx st ~record_target:target) txs;
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
          List.iter (record_tx st ~record_target:(-1)) txs;
          for target = 0 to st.config.n - 1 do
            send_batch st ~target txs
          done
        end
        else begin
          let by_target = Array.make st.config.n [] in
          for _ = 1 to k do
            let target = Rng.int st.workload_rng st.config.n in
            let tx = fresh_tx st ~client:0 in
            by_target.(target) <- tx :: by_target.(target)
          done;
          (* Batches go out in replica order: the batch list's order
             reaches the trace sink via issue_txs. *)
          let batches = ref [] in
          for tgt = st.config.n - 1 downto 0 do
            match by_target.(tgt) with
            | [] -> ()
            | txs -> batches := (tgt, txs) :: !batches
          done;
          issue_txs st !batches
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
    issue_txs st [ (target, [ tx ]) ]
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

(* A probe gauge's labels: [node=<id>], or none for a cluster-level gauge
   ([node = -1]). *)
let probe_labels node =
  if node >= 0 then [ ("node", string_of_int node) ] else []

(* Registers the resource gauges in [registry] (in a private one when it is
   disabled) and samples them every [probe_interval] of virtual time into
   their registry gauges and the trace. The registry's running aggregates
   are the only store of samples, so a probe's memory does not grow with
   the run. Returns the registry and the gauges (node, name, reader,
   registry gauge), in registration order. *)
let install_probe ~config ~sim ~machines ~trace ~registry =
  let interval = config.Config.probe_interval in
  if interval <= 0.0 then None
  else begin
    let registry =
      if Registry.enabled registry then registry else Registry.create ()
    in
    let gauges = ref [] in
    let add ~node name read =
      let cell = Registry.gauge registry ~labels:(probe_labels node) name in
      gauges := (node, name, read, cell) :: !gauges
    in
    Array.iteri
      (fun i m ->
        add ~node:i "cpu_queue_depth" (fun () ->
            float_of_int (Machine.queue_depth m `Cpu));
        add ~node:i "nic_out_queue_depth" (fun () ->
            float_of_int (Machine.queue_depth m `Nic_out));
        add ~node:i "nic_in_queue_depth" (fun () ->
            float_of_int (Machine.queue_depth m `Nic_in));
        (* Busy fraction per sampling window: seconds of work admitted to
           the queue since the last sample, over the window. Exceeds 1.0
           while a backlog builds — exactly the saturation signal the
           paper's L-shaped latency knee corresponds to. *)
        let last_cpu = ref 0.0 in
        add ~node:i "cpu_utilization" (fun () ->
            let b = Machine.busy_seconds m `Cpu in
            let d = b -. !last_cpu in
            last_cpu := b;
            d /. interval);
        let last_nic = ref 0.0 in
        add ~node:i "nic_out_utilization" (fun () ->
            let b = Machine.busy_seconds m `Nic_out in
            let d = b -. !last_nic in
            last_nic := b;
            d /. interval))
      machines;
    add ~node:(-1) "event_heap" (fun () -> float_of_int (Sim.pending sim));
    let gauges = List.rev !gauges in
    let rec tick () =
      let now = Sim.now sim in
      List.iter
        (fun (node, name, read, cell) ->
          let v = read () in
          Trace.gauge trace ~ts:now ~node ~name v;
          Registry.Gauge.set cell v)
        gauges;
      if now +. interval <= config.Config.runtime then
        Sim.schedule sim ~delay:interval tick
    in
    Sim.schedule sim ~delay:interval tick;
    Some (registry, gauges)
  end

let pp_probe fmt (m : Snapshot.metric) =
  match m.value with
  | Gauge { mean; max_v; samples; _ } ->
      Format.fprintf fmt "node %s %-20s mean %10.3f  max %10.3f  (%d samples)"
        (Option.value ~default:"-1" (List.assoc_opt "node" m.labels))
        m.name mean max_v samples
  | Counter _ | Histogram _ -> invalid_arg "Runtime.pp_probe: not a gauge"

(* Publish the run's tallies into the metrics registry. The hot paths
   update plain per-run ints (always on, a few instructions each); the
   registry is only written here, once per run, so enabling
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

let run ~config ~workload ?(bucket = 0.5) ?(trace = Trace.null)
    ?(metrics = Registry.null) ?wrap_safety ?scheduler () =
  let mreg = metrics in
  (match Config.validate config with
  | Ok _ -> ()
  | Error e -> invalid_arg ("Runtime.run: " ^ e));
  (* The first honest replica supplies the view/commit counts. *)
  let observer = min config.Config.byz_no (config.Config.n - 1) in
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
        Machine.create ~bandwidth:config.Config.bandwidth)
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
      records = Tx_records.create ();
      workload_rng;
      eng =
        Fault_engine.create ~n:config.Config.n ~rng:fault_rng
          ~schedule:config.Config.faults;
      trace;
      spans = Hashtbl.create 1024;
      agreement = Agreement.create ~replicas:(Array.init config.Config.n Fun.id);
      next_seq = 0;
      reissue = (fun ~client:_ ~after:_ -> ());
      notify = None;
    }
  in
  Sim.set_handler sim ~fire:(fire st) ~delivery;
  (* Controlled scheduling must be live before any replica boots so the
     very first proposal broadcast is already reorderable. *)
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
                (Sim.fold_pending sim
                   (fun acc ev ->
                     match ev with
                     | Replica_timer { replica; timer; expiry } ->
                         (replica, timer_code timer, expiry) :: acc
                     | _ -> acc)
                   []));
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
      (fun m -> Machine.busy_seconds m `Cpu /. config.Config.runtime)
      machines
  in
  let agreement = Agreement.verdict st.agreement in
  let violations = Array.map Node.safety_violation nodes in
  let any_violation = Array.exists Fun.id violations in
  publish_metrics mreg ~sim ~net ~machines ~nodes ~sig_registry:registry;
  let snapshot = Registry.snapshot mreg in
  let probe =
    match probe with
    | None -> []
    | Some (reg, gauges) ->
        let snap = if reg == mreg then snapshot else Registry.snapshot reg in
        List.map
          (fun (node, name, _, _) ->
            Option.get (Snapshot.find snap ~labels:(probe_labels node) name))
          gauges
  in
  {
    summary;
    series = Metrics.throughput_series metrics;
    final_views;
    committed_heights;
    cpu_utilization;
    consistent = agreement.Agreement.conflicts = [];
    any_violation;
    violations;
    agreement;
    decomposition = Metrics.decomposition metrics;
    probe;
    sim_events = Sim.fired sim;
    metrics = snapshot;
  }
