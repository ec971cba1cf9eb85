module Registry = Bamboo_metrics.Registry

let default_capacity = 4096

type cluster = {
  inboxes : Inbox.t array;
  sends : int Atomic.t array; (* messages accepted into each inbox *)
}

type t = { self : int; cluster : cluster }

let create_cluster ?(capacity = default_capacity) ~n () =
  if n <= 0 then invalid_arg "Ring_transport.create_cluster: n must be positive";
  {
    inboxes = Array.init n (fun _ -> Inbox.create ~capacity);
    sends = Array.init n (fun _ -> Atomic.make 0);
  }

let endpoint cluster id =
  if id < 0 || id >= Array.length cluster.inboxes then
    invalid_arg "Ring_transport.endpoint: id out of range";
  { self = id; cluster }

let self t = t.self
let n t = Array.length t.cluster.inboxes

let send t ~dst msg =
  if dst < 0 || dst >= n t then invalid_arg "Ring_transport.send: bad destination";
  if Inbox.push t.cluster.inboxes.(dst) msg then Atomic.incr t.cluster.sends.(dst)

let broadcast t msg =
  for dst = 0 to n t - 1 do
    if dst <> t.self then send t ~dst msg
  done

let recv_batch t = Inbox.recv_batch t.cluster.inboxes.(t.self)
let recv t = Inbox.recv t.cluster.inboxes.(t.self)
let close t = Inbox.close t.cluster.inboxes.(t.self)

let publish_metrics cluster reg =
  if Registry.enabled reg then
    Array.iteri
      (fun id inbox ->
        let s = Inbox.stats inbox in
        let labels = [ ("node", string_of_int id) ] in
        Registry.Counter.add
          (Registry.counter reg ~labels "ring_transport_sends")
          (Atomic.get cluster.sends.(id));
        Registry.Counter.add
          (Registry.counter reg ~labels "ring_transport_dropped_full")
          s.dropped;
        Registry.Counter.add
          (Registry.counter reg ~labels "ring_transport_recv_msgs")
          s.received;
        Registry.Counter.add
          (Registry.counter reg ~labels "ring_transport_recv_batches")
          s.batches;
        Registry.Gauge.set
          (Registry.gauge reg ~labels "ring_transport_peak_depth")
          (float_of_int s.peak_depth);
        let h = Registry.histogram reg ~labels "ring_transport_recv_batch_size" in
        Array.iteri
          (fun b count ->
            for _ = 1 to count do
              Registry.Histogram.observe h (1 lsl b)
            done)
          s.batch_hist)
      cluster.inboxes
