open Bamboo_types
module Committed = Bamboo_mempool.Committed
module Forest = Bamboo_forest.Forest
module Heap = Bamboo_util.Heap
module Trace = Bamboo_obs.Trace
module Wakeup = Bamboo_network.Wakeup

(* This runtime drives real system threads over real sockets/rings, so
   wall-clock reads are its time base by design; reproducibility is the
   simulator's job (lib/sim + runtime.ml), not this deployment path's. *)
[@@@lint.allow "no-ambient-nondeterminism"]

type report = {
  duration : float;
  committed_txs : int;
  committed_blocks : int array;
  throughput : float;
  consistent : bool;
  kv_consistent : bool;
  any_violation : bool;
}

type shared = {
  mutex : Mutex.t;
  committed : Committed.t; [@guarded_by "mutex"]
  oracle : Agreement.t; [@guarded_by "mutex"] (* over the owned replicas *)
  bell : Wakeup.doorbell; (* rung after [committed] grows *)
  stop : bool Atomic.t;
}

(* Blocks until [ready] holds of the committed set or [timeout_s]
   elapses; returns whether it held. [ready] runs under the bell's mutex
   and takes [shared.mutex]: the lock order [Wakeup.park] requires, so
   commits ring the bell only after releasing [shared.mutex]. *)
let await shared ~timeout_s ready =
  Wakeup.park shared.bell
    ~deadline:(Unix.gettimeofday () +. timeout_s)
    ~ready:(fun () ->
      Mutex.lock shared.mutex;
      let r = ready shared.committed in
      Mutex.unlock shared.mutex;
      r)

(* Execution-layer agreement: each store is compared with the first one
   seen at its committed height. *)
let kv_consistent stores =
  let rec go seen = function
    | [] -> true
    | (height, hash) :: rest -> (
        match List.find_opt (fun (h, _) -> Int.equal h height) seen with
        | Some (_, first) -> String.equal first hash && go seen rest
        | None -> go ((height, hash) :: seen) rest)
  in
  go [] stores

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

  val submit_admission : cluster -> replica:int -> Bamboo_types.Tx.t list -> int
  val committed_txs : cluster -> int
  val rejected_txs : cluster -> int
  val tx_committed : cluster -> Bamboo_types.Tx.id -> bool
  val kv_get : cluster -> replica:int -> string -> string option
  val wait_committed : cluster -> count:int -> timeout_s:float -> bool
  val wait_tx_committed : cluster -> Bamboo_types.Tx.id -> timeout_s:float -> bool
  val stop : cluster -> report
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

  (* Apply node outputs: transmit messages, arm timers, record commits and
     execute committed transactions. Called with [ctx.node_mutex] held. *)
  let apply_outputs shared ctx outs =
    let tracing = Trace.enabled ctx.trace in
    List.iter
      (fun out ->
        (* No span lookup: span ids would be per-process counters, so
           monitors over a merged trace correlate by the block hash. *)
        if tracing then
          Node_trace.output ctx.trace
            ~ts:(Unix.gettimeofday () -. ctx.epoch)
            ~node:ctx.id out;
        match out with
        | Node.Send { dst; msg } -> T.send ctx.endpoint ~dst msg
        | Node.Broadcast msg -> T.broadcast ctx.endpoint msg
        | Node.Set_timer { timer; after } ->
            Heap.push ctx.timers (Unix.gettimeofday () +. after, timer)
        | Node.Committed { blocks; _ } ->
            List.iter
              (fun (b : Block.t) ->
                for i = 0 to Body.length b.body - 1 do
                  ignore (Kvstore.apply_tx ctx.kv (Body.data b.body i))
                done)
              blocks;
            Mutex.lock shared.mutex;
            let before = Committed.count shared.committed in
            List.iter
              (fun (b : Block.t) ->
                Agreement.commit shared.oracle ~replica:ctx.id b;
                for i = 0 to Body.length b.body - 1 do
                  ignore
                    (Committed.add shared.committed ~client:(Body.client b.body i)
                       ~seq:(Body.seq b.body i)
                      : bool)
                done)
              blocks;
            let grew = Committed.count shared.committed > before in
            Mutex.unlock shared.mutex;
            if grew then Wakeup.ring shared.bell
        | Node.Proposed _ | Node.Qc_formed _ | Node.Entered_view _
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
        (* Peek under the node mutex: [submit_admission] pushes timers
           from client threads, and a concurrent [Heap.push] can tear
           the peek. *)
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
        committed = Committed.create ();
        oracle = Agreement.create ~replicas:owned;
        bell = Wakeup.doorbell ();
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

  (* The node counts each tx its mempool refuses. *)
  let submit_admission cluster ~replica txs =
    let ctx = ctx_of cluster ~replica in
    Mutex.lock ctx.node_mutex;
    let rejected_before = Node.rejected_txs ctx.node in
    apply cluster.shared ctx (Node.handle ctx.node (Submit txs));
    let rejected = Node.rejected_txs ctx.node - rejected_before in
    Mutex.unlock ctx.node_mutex;
    List.length txs - rejected

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
    let c =
      Committed.mem cluster.shared.committed ~client:id.Tx.client ~seq:id.Tx.seq
    in
    Mutex.unlock cluster.shared.mutex;
    c

  let committed_txs cluster =
    Mutex.lock cluster.shared.mutex;
    let n = Committed.count cluster.shared.committed in
    Mutex.unlock cluster.shared.mutex;
    n

  let kv_get cluster ~replica key =
    let ctx = ctx_of cluster ~replica in
    Mutex.lock ctx.node_mutex;
    let v = Kvstore.get ctx.kv key in
    Mutex.unlock ctx.node_mutex;
    v

  let wait_committed cluster ~count ~timeout_s =
    await cluster.shared ~timeout_s (fun c -> Committed.count c >= count)

  let wait_tx_committed cluster id ~timeout_s =
    await cluster.shared ~timeout_s (fun c ->
        Committed.mem c ~client:id.Tx.client ~seq:id.Tx.seq)

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
    let heights =
      Array.map
        (fun ctx -> Forest.committed_height (Node.forest ctx.node))
        replicas
    in
    let kv_consistent =
      kv_consistent
        (Array.to_list
           (Array.mapi
              (fun i ctx -> (heights.(i), Kvstore.state_hash ctx.kv))
              replicas))
    in
    (* The replica threads are joined, but take the mutex anyway so the
       locking story stays uniform (and checkable) for these fields. *)
    let committed_txs, consistent =
      Mutex.lock shared.mutex;
      let committed_txs = Committed.count shared.committed in
      let consistent = (Agreement.verdict shared.oracle).Agreement.conflicts = [] in
      Mutex.unlock shared.mutex;
      (committed_txs, consistent)
    in
    {
      duration = elapsed;
      committed_txs;
      committed_blocks;
      throughput = float_of_int committed_txs /. elapsed;
      consistent;
      kv_consistent;
      any_violation =
        Array.exists (fun ctx -> Node.safety_violation ctx.node) replicas;
    }
end
