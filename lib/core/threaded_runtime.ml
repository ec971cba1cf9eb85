open Bamboo_types
module Forest = Bamboo_forest.Forest
module Heap = Bamboo_util.Heap
module Trace = Bamboo_obs.Trace
module Json = Bamboo_util.Json

(* This runtime drives real system threads over real sockets/rings, so
   wall-clock reads are its time base by design; reproducibility is the
   simulator's job (lib/sim + runtime.ml), not this deployment path's. *)
[@@@lint.allow "no-ambient-nondeterminism"]

type report = {
  duration : float;
  committed_txs : int;
  committed_blocks : int array;
  throughput : float;
  latency_mean : float;
  latency_count : int;
  consistent : bool;
  kv_consistent : bool;
  any_violation : bool;
}

type shared = {
  mutex : Mutex.t;
  issue_times : float Tx.Id_tbl.t; [@guarded_by "mutex"]
  mutable latency_total : float; [@guarded_by "mutex"]
  mutable latency_count : int; [@guarded_by "mutex"]
  mutable committed : Tx.Id_set.t; [@guarded_by "mutex"]
  stop : bool Atomic.t;
}

module type RUNTIME = sig
  type endpoint
  type cluster

  val start :
    ?owned:int array ->
    ?traces:Bamboo_obs.Trace.t array ->
    ?epoch:float ->
    config:Config.t ->
    endpoints:endpoint array ->
    unit ->
    cluster

  val submit : cluster -> replica:int -> Bamboo_types.Tx.t list -> unit
  val submit_admission : cluster -> replica:int -> Bamboo_types.Tx.t list -> int
  val committed_txs : cluster -> int
  val rejected_txs : cluster -> int
  val tx_committed : cluster -> Bamboo_types.Tx.id -> bool
  val kv_get : cluster -> replica:int -> string -> string option
  val kv_state_hash : cluster -> replica:int -> string
  val wait_committed : cluster -> count:int -> timeout_s:float -> bool
  val stop : cluster -> report

  val run :
    ?owned:int array ->
    ?traces:Bamboo_obs.Trace.t array ->
    ?epoch:float ->
    config:Config.t ->
    endpoints:endpoint array ->
    duration:float ->
    rate:float ->
    unit ->
    report
end

(* How many queued messages a replica takes per transport pass. Bounds the
   time the node mutex is held while a big backlog drains. *)
let recv_batch_max = 256

module Make_batched (T : Bamboo_network.Transport.S) = struct
  type endpoint = T.t

  type replica_ctx = {
    id : int; (* global replica id; equals Node.self *)
    node : Node.t;
    endpoint : T.t;
    node_mutex : Mutex.t;
    kv : Kvstore.t;
    timers : (float * Node.timer) Heap.t; [@guarded_by "node_mutex"]
        (* min-heap on deadline *)
    trace : Trace.t;
    epoch : float;
  }

  type cluster = {
    config : Config.t;
    shared : shared;
    replicas : replica_ctx array;
    local : int array; (* global id -> index into [replicas], or -1 *)
    threads : Thread.t list;
    started_at : float;
  }

  let timer_cmp (a, _) (b, _) = Float.compare a b

  (* Trace the consensus-level meaning of an outgoing message. Events
     carry the block hash in [args] so that monitors over a merged
     multi-process trace can correlate by block identity (span ids are
     per-process counters and meaningless across traces). *)
  let trace_sent ctx ~ts msg =
    match msg with
    | Message.Vote v when v.Vote.voter = ctx.id ->
        Trace.emit ctx.trace ~ts ~node:ctx.id ~view:v.Vote.view
          ~args:[ ("hash", Json.String (Ids.short v.Vote.block)) ]
          Trace.Vote_sent
    | Message.Timeout tm when tm.Timeout_msg.sender = ctx.id ->
        Trace.emit ctx.trace ~ts ~node:ctx.id ~view:tm.Timeout_msg.view
          Trace.Timeout_fired
    | Message.Proposal _ | Message.Vote _ | Message.Timeout _
    | Message.Request_block _ ->
        () (* original proposals are traced via the Proposed output *)

  (* Apply node outputs: transmit messages, arm timers, record commits and
     execute committed transactions. Called with [ctx.node_mutex] held. *)
  let apply_outputs shared ctx outs =
    let tracing = Trace.enabled ctx.trace in
    List.iter
      (fun out ->
        match out with
        | Node.Send { dst; msg } ->
            if tracing then
              trace_sent ctx ~ts:(Unix.gettimeofday () -. ctx.epoch) msg;
            T.send ctx.endpoint ~dst msg
        | Node.Broadcast msg ->
            if tracing then
              trace_sent ctx ~ts:(Unix.gettimeofday () -. ctx.epoch) msg;
            T.broadcast ctx.endpoint msg
        | Node.Set_timer { timer; after } ->
            Heap.push ctx.timers (Unix.gettimeofday () +. after, timer)
        | Node.Committed { blocks; trigger_view } ->
            let now = Unix.gettimeofday () in
            if tracing then
              List.iter
                (fun (b : Block.t) ->
                  Trace.emit ctx.trace ~ts:(now -. ctx.epoch) ~node:ctx.id
                    ~view:b.Block.view
                    ~args:
                      [
                        ("hash", Json.String (Ids.short b.Block.hash));
                        ("height", Json.Int b.Block.height);
                        ("txs", Json.Int (List.length b.Block.txs));
                        ("triggerView", Json.Int trigger_view);
                      ]
                    Trace.Commit)
                blocks;
            List.iter
              (fun (b : Block.t) ->
                List.iter
                  (fun (tx : Tx.t) -> ignore (Kvstore.apply_tx ctx.kv tx))
                  b.txs)
              blocks;
            Mutex.lock shared.mutex;
            List.iter
              (fun (b : Block.t) ->
                List.iter
                  (fun (tx : Tx.t) ->
                    if not (Tx.Id_set.mem tx.id shared.committed) then begin
                      shared.committed <- Tx.Id_set.add tx.id shared.committed;
                      match Tx.Id_tbl.find_opt shared.issue_times tx.id with
                      | Some t0 ->
                          shared.latency_total <-
                            shared.latency_total +. (now -. t0);
                          shared.latency_count <- shared.latency_count + 1
                      | None -> ()
                    end)
                  b.txs)
              blocks;
            Mutex.unlock shared.mutex
        | Node.Proposed b ->
            if tracing then
              Trace.emit ctx.trace
                ~ts:(Unix.gettimeofday () -. ctx.epoch)
                ~node:ctx.id ~view:b.Block.view
                ~args:
                  [
                    ("hash", Json.String (Ids.short b.Block.hash));
                    ("height", Json.Int b.Block.height);
                    ("txs", Json.Int (List.length b.Block.txs));
                  ]
                Trace.Proposal_sent
        | Node.Qc_formed qc ->
            if tracing then
              Trace.emit ctx.trace
                ~ts:(Unix.gettimeofday () -. ctx.epoch)
                ~node:ctx.id ~view:qc.Qc.view
                ~args:
                  [
                    ("hash", Json.String (Ids.short qc.Qc.block));
                    ("height", Json.Int qc.Qc.height);
                  ]
                Trace.Qc_formed
        | Node.Entered_view { view; reason } ->
            if tracing then
              Trace.emit ctx.trace
                ~ts:(Unix.gettimeofday () -. ctx.epoch)
                ~node:ctx.id ~view
                ~args:[ ("reason", Json.String reason) ]
                Trace.View_change
        | Node.Forked _ | Node.Voted _ -> ())
      outs

  (* Fire every due timer, including timers armed by the handlers of
     timers fired in this same pass. *)
  let rec fire_due shared ctx =
    match Heap.peek ctx.timers with
    | Some (at, _) when at <= Unix.gettimeofday () -> (
        match Heap.pop ctx.timers with
        | Some (_, timer) ->
            apply_outputs shared ctx (Node.handle ctx.node (Timer timer));
            fire_due shared ctx
        | None -> ())
    | Some _ | None -> ()

  let apply shared ctx outs =
    apply_outputs shared ctx outs;
    fire_due shared ctx

  let replica_loop shared ctx =
    Mutex.lock ctx.node_mutex;
    apply shared ctx (Node.start ctx.node);
    Mutex.unlock ctx.node_mutex;
    while not (Atomic.get shared.stop) do
      let now = Unix.gettimeofday () in
      let timeout_s =
        (* Peek under the node mutex: [submit] pushes timers from client
           threads, and a concurrent [Heap.push] can tear the peek. *)
        Mutex.lock ctx.node_mutex;
        let t =
          match Heap.peek ctx.timers with
          | Some (at, _) -> Float.max 0.0 (Float.min 0.02 (at -. now))
          | None -> 0.02
        in
        Mutex.unlock ctx.node_mutex;
        t
      in
      let msgs = T.recv_batch ctx.endpoint ~timeout_s ~max:recv_batch_max in
      Mutex.lock ctx.node_mutex;
      (match msgs with
      | [] -> fire_due shared ctx
      | msgs ->
          List.iter
            (fun m -> apply_outputs shared ctx (Node.handle ctx.node (Receive m)))
            msgs;
          fire_due shared ctx);
      Mutex.unlock ctx.node_mutex
    done

  let start ?owned ?traces ?epoch ~config ~endpoints () =
    let owned =
      match owned with
      | Some o -> o
      | None -> Array.init config.Config.n (fun i -> i)
    in
    if Array.length endpoints <> Array.length owned then
      invalid_arg "Threaded_runtime.start: endpoint count mismatch";
    Array.iter
      (fun id ->
        if id < 0 || id >= config.Config.n then
          invalid_arg "Threaded_runtime.start: owned replica out of range")
      owned;
    let traces =
      match traces with
      | Some ts ->
          if Array.length ts <> Array.length owned then
            invalid_arg "Threaded_runtime.start: trace count mismatch";
          ts
      | None -> Array.map (fun _ -> Trace.null) owned
    in
    let epoch = match epoch with Some e -> e | None -> Unix.gettimeofday () in
    (* The signature registry derives every replica's key from (n, master),
       so independently-started processes agree on all keys. *)
    let registry =
      Bamboo_crypto.Sig.setup ~n:config.Config.n ~master:"bamboo-threaded"
    in
    let shared =
      {
        mutex = Mutex.create ();
        issue_times = Tx.Id_tbl.create 1024;
        latency_total = 0.0;
        latency_count = 0;
        committed = Tx.Id_set.empty;
        stop = Atomic.make false;
      }
    in
    let replicas =
      Array.mapi
        (fun i self ->
          {
            id = self;
            node = Node.create ~config ~self ~registry ();
            endpoint = endpoints.(i);
            node_mutex = Mutex.create ();
            kv = Kvstore.create ();
            timers = Heap.create ~cmp:timer_cmp ();
            trace = traces.(i);
            epoch;
          })
        owned
    in
    let local = Array.make config.Config.n (-1) in
    Array.iteri (fun i self -> local.(self) <- i) owned;
    let threads =
      Array.to_list
        (Array.map
           (fun ctx -> Thread.create (replica_loop shared) ctx)
           replicas)
    in
    {
      config;
      shared;
      replicas;
      local;
      threads;
      started_at = Unix.gettimeofday ();
    }

  let ctx_of cluster ~replica =
    if replica < 0 || replica >= Array.length cluster.local then
      invalid_arg "Threaded_runtime: replica out of range";
    match cluster.local.(replica) with
    | -1 -> invalid_arg "Threaded_runtime: replica not owned by this cluster"
    | i -> cluster.replicas.(i)

  let submit_admission cluster ~replica txs =
    let ctx = ctx_of cluster ~replica in
    let now = Unix.gettimeofday () in
    Mutex.lock cluster.shared.mutex;
    List.iter
      (fun (tx : Tx.t) ->
        Tx.Id_tbl.replace cluster.shared.issue_times tx.id now)
      txs;
    Mutex.unlock cluster.shared.mutex;
    Mutex.lock ctx.node_mutex;
    let rejected_before = Node.rejected_txs ctx.node in
    apply cluster.shared ctx (Node.handle ctx.node (Submit txs));
    let rejected_after = Node.rejected_txs ctx.node in
    Mutex.unlock ctx.node_mutex;
    List.length txs - (rejected_after - rejected_before)

  let submit cluster ~replica txs =
    ignore (submit_admission cluster ~replica txs : int)

  let rejected_txs cluster =
    Array.fold_left
      (fun acc ctx ->
        Mutex.lock ctx.node_mutex;
        let r = Node.rejected_txs ctx.node in
        Mutex.unlock ctx.node_mutex;
        acc + r)
      0 cluster.replicas

  let tx_committed cluster id =
    Mutex.lock cluster.shared.mutex;
    let c = Tx.Id_set.mem id cluster.shared.committed in
    Mutex.unlock cluster.shared.mutex;
    c

  let committed_txs cluster =
    Mutex.lock cluster.shared.mutex;
    let n = Tx.Id_set.cardinal cluster.shared.committed in
    Mutex.unlock cluster.shared.mutex;
    n

  let kv_get cluster ~replica key =
    let ctx = ctx_of cluster ~replica in
    Mutex.lock ctx.node_mutex;
    let v = Kvstore.get ctx.kv key in
    Mutex.unlock ctx.node_mutex;
    v

  let kv_state_hash cluster ~replica =
    let ctx = ctx_of cluster ~replica in
    Mutex.lock ctx.node_mutex;
    let h = Kvstore.state_hash ctx.kv in
    Mutex.unlock ctx.node_mutex;
    h

  let wait_committed cluster ~count ~timeout_s =
    let deadline = Unix.gettimeofday () +. timeout_s in
    let rec loop () =
      if committed_txs cluster >= count then true
      else if Unix.gettimeofday () > deadline then false
      else begin
        Thread.delay 0.005;
        loop ()
      end
    in
    loop ()

  let stop cluster =
    Atomic.set cluster.shared.stop true;
    Array.iter (fun ctx -> T.close ctx.endpoint) cluster.replicas;
    List.iter Thread.join cluster.threads;
    Array.iter (fun ctx -> Trace.close ctx.trace) cluster.replicas;
    let elapsed = Unix.gettimeofday () -. cluster.started_at in
    let shared = cluster.shared in
    let replicas = cluster.replicas in
    let committed_blocks =
      Array.map (fun ctx -> Node.committed_count ctx.node) replicas
    in
    (* Consistency: committed chains agree on the common prefix (across
       the replicas this cluster owns). *)
    let heights =
      Array.map
        (fun ctx -> Forest.committed_height (Node.forest ctx.node))
        replicas
    in
    let min_height = Array.fold_left min max_int heights in
    let consistent = ref true in
    for h = 0 to min_height do
      match Forest.committed_at (Node.forest replicas.(0).node) h with
      | None -> consistent := false
      | Some reference ->
          Array.iter
            (fun ctx ->
              match Forest.committed_at (Node.forest ctx.node) h with
              | Some b when Block.equal b reference -> ()
              | Some _ | None -> consistent := false)
            replicas
    done;
    (* Execution-layer agreement: replicas at the same committed height
       must hold byte-identical stores. *)
    let kv_consistent = ref true in
    let reference_height = heights.(0) in
    let reference_hash = Kvstore.state_hash replicas.(0).kv in
    Array.iteri
      (fun i ctx ->
        if i > 0 && heights.(i) = reference_height then
          if not (String.equal (Kvstore.state_hash ctx.kv) reference_hash) then
            kv_consistent := false)
      replicas;
    (* The replica threads are joined, but take the mutex anyway so the
       locking story stays uniform (and checkable) for these fields. *)
    let committed_txs, latency_mean, latency_count =
      Mutex.lock shared.mutex;
      let committed_txs = Tx.Id_set.cardinal shared.committed in
      let latency_mean =
        if shared.latency_count = 0 then 0.0
        else shared.latency_total /. float_of_int shared.latency_count
      in
      let latency_count = shared.latency_count in
      Mutex.unlock shared.mutex;
      (committed_txs, latency_mean, latency_count)
    in
    {
      duration = elapsed;
      committed_txs;
      committed_blocks;
      throughput = float_of_int committed_txs /. elapsed;
      latency_mean;
      latency_count;
      consistent = !consistent;
      kv_consistent = !kv_consistent;
      any_violation =
        Array.exists (fun ctx -> Node.safety_violation ctx.node) replicas;
    }

  let run ?owned ?traces ?epoch ~config ~endpoints ~duration ~rate () =
    let cluster = start ?owned ?traces ?epoch ~config ~endpoints () in
    let targets = Array.map (fun ctx -> ctx.id) cluster.replicas in
    let rng = Bamboo_util.Rng.create ~seed:(config.Config.seed + 1000) in
    let seq = ref 0 in
    let batch_interval = 0.002 in
    let deadline = Unix.gettimeofday () +. duration in
    while Unix.gettimeofday () < deadline do
      let k = Bamboo_util.Dist.poisson rng ~mean:(rate *. batch_interval) in
      if k > 0 then begin
        let target = targets.(Bamboo_util.Rng.int rng (Array.length targets)) in
        let txs =
          List.init k (fun _ ->
              incr seq;
              Tx.make ~client:1 ~seq:!seq ~payload_len:config.Config.psize)
        in
        submit cluster ~replica:target txs
      end;
      Thread.delay batch_interval
    done;
    stop cluster
end
