(* Wall-clock reads implement receive timeouts on a real threaded
   transport; determinism claims only cover the simulator path. *)
[@@@lint.allow "no-ambient-nondeterminism"]

module Ring = Bamboo_util.Ring
module Registry = Bamboo_metrics.Registry

let tick_period_s = 0.001
let default_capacity = 4096
let send_retries = 64
let hist_buckets = 12 (* log2 buckets: batch sizes 1 .. 2048+ *)

type endpoint_state = {
  id : int;
  inbox : Bamboo_types.Message.t Ring.t;
  bell : Wakeup.doorbell;
  (* Producer-side tallies: bumped from any sender thread. *)
  sends : int Atomic.t;
  drops : int Atomic.t;
  (* Consumer-side tallies: owned by the single receiver thread. *)
  mutable recv_msgs : int;
  mutable recv_batches : int;
  mutable peak_depth : int;
  batch_hist : int array; (* drained batch size, log2-bucketed *)
}

type cluster = {
  endpoints : endpoint_state array; [@lint.allow "domain-escape"]
      (* layout fixed at construction; per-endpoint state is consumer-owned
         or atomic (see the field comments above) *)
  live : int Atomic.t;
}

type t = { state : endpoint_state; cluster : cluster }

let create_cluster ?(capacity = default_capacity) ~n () =
  if n <= 0 then invalid_arg "Ring_transport.create_cluster: n must be positive";
  let cluster =
    {
      endpoints =
        Array.init n (fun id ->
            {
              id;
              inbox = Ring.create ~capacity ();
              bell = Wakeup.doorbell ();
              sends = Atomic.make 0;
              drops = Atomic.make 0;
              recv_msgs = 0;
              recv_batches = 0;
              peak_depth = 0;
              batch_hist = Array.make hist_buckets 0;
            });
      live = Atomic.make n;
    }
  in
  (* Bounded receive timeouts: the ticker wakes each doorbell whose
     deadline has passed (see Wakeup); it exits once every endpoint is
     closed. *)
  ignore
    (Wakeup.start_ticker ~period_s:tick_period_s
       ~live:(fun () -> Atomic.get cluster.live > 0)
       ~wake:(fun () ->
         let now = Unix.gettimeofday () in
         Array.iter (fun ep -> Wakeup.expire ep.bell ~now) cluster.endpoints)
      : Wakeup.ticker);
  cluster

let endpoint cluster id =
  if id < 0 || id >= Array.length cluster.endpoints then
    invalid_arg "Ring_transport.endpoint: id out of range";
  { state = cluster.endpoints.(id); cluster }

let self t = t.state.id
let n t = Array.length t.cluster.endpoints

let send t ~dst msg =
  if dst < 0 || dst >= n t then invalid_arg "Ring_transport.send: bad destination";
  let ep = t.cluster.endpoints.(dst) in
  let rec push tries =
    match Ring.push ep.inbox msg with
    | Ring.Pushed ->
        Atomic.incr ep.sends;
        Wakeup.ring ep.bell
    | Ring.Closed -> () (* crash faults look like silence *)
    | Ring.Full ->
        if tries >= send_retries then Atomic.incr ep.drops
        else begin
          (* Bounded backpressure: give the consumer a chance to drain,
             then drop — overload degrades like a lossy link. *)
          Thread.yield ();
          push (tries + 1)
        end
  in
  push 0

let broadcast t msg =
  Array.iter
    (fun ep -> if ep.id <> t.state.id then send t ~dst:ep.id msg)
    t.cluster.endpoints

let log2_bucket k =
  let rec go b k = if k <= 1 || b = hist_buckets - 1 then b else go (b + 1) (k lsr 1) in
  go 0 k

(* Drain up to [max] published messages; single consumer. *)
let take ep ~max =
  let depth = Ring.length ep.inbox in
  if depth > ep.peak_depth then ep.peak_depth <- depth;
  let acc = ref [] in
  let taken = Ring.drain ep.inbox ~max (fun m -> acc := m :: !acc) in
  if taken > 0 then begin
    ep.recv_msgs <- ep.recv_msgs + taken;
    ep.recv_batches <- ep.recv_batches + 1;
    let b = log2_bucket taken in
    ep.batch_hist.(b) <- ep.batch_hist.(b) + 1
  end;
  List.rev !acc

let recv_batch t ~timeout_s ~max =
  let ep = t.state in
  if Ring.is_closed ep.inbox then []
  else
    match take ep ~max with
    | _ :: _ as msgs -> msgs
    | [] ->
        let deadline = Unix.gettimeofday () +. timeout_s in
        let ready () =
          Ring.is_closed ep.inbox || not (Ring.is_empty ep.inbox)
        in
        if Wakeup.park ep.bell ~deadline ~ready && not (Ring.is_closed ep.inbox)
        then take ep ~max
        else []

let recv t ~timeout_s =
  match recv_batch t ~timeout_s ~max:1 with m :: _ -> Some m | [] -> None

let close t =
  let ep = t.state in
  if Ring.close ep.inbox then begin
    Wakeup.ring ep.bell;
    Atomic.decr t.cluster.live
  end

let publish_metrics cluster reg =
  if Registry.enabled reg then
    Array.iter
      (fun ep ->
        let labels = [ ("node", string_of_int ep.id) ] in
        Registry.Counter.add
          (Registry.counter reg ~labels "ring_transport_sends")
          (Atomic.get ep.sends);
        Registry.Counter.add
          (Registry.counter reg ~labels "ring_transport_dropped_full")
          (Atomic.get ep.drops);
        Registry.Counter.add
          (Registry.counter reg ~labels "ring_transport_recv_msgs")
          ep.recv_msgs;
        Registry.Counter.add
          (Registry.counter reg ~labels "ring_transport_recv_batches")
          ep.recv_batches;
        Registry.Gauge.set
          (Registry.gauge reg ~labels "ring_transport_peak_depth")
          (float_of_int ep.peak_depth);
        let h = Registry.histogram reg ~labels "ring_transport_recv_batch_size" in
        Array.iteri
          (fun b count ->
            for _ = 1 to count do
              Registry.Histogram.observe h (1 lsl b)
            done)
          ep.batch_hist)
      cluster.endpoints
