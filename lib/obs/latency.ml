type components = {
  client_wire : float;
  cpu_queue : float;
  cpu_service : float;
  mempool_wait : float;
  nic_serialization : float;
  consensus_wait : float;
}

(* Running means only: [summarize] reads nothing else, so no sample is
   stored. Each mean takes the update [Stats.add] applies, which keeps the
   printed decomposition bit-identical to a sample-storing one. *)
type t = {
  mutable n : int;
  means : Float.Array.t;
      (* the six components in declaration order, then the total *)
}

type summary = {
  samples : int;
  client_wire : float;
  cpu_queue : float;
  cpu_service : float;
  mempool_wait : float;
  nic_serialization : float;
  consensus_wait : float;
  total : float;
}

let create () = { n = 0; means = Float.Array.make 7 0.0 }

let record (t : t) (c : components) ~total =
  t.n <- t.n + 1;
  let n = float_of_int t.n in
  let add slot x =
    let mean = Float.Array.get t.means slot in
    Float.Array.set t.means slot (mean +. ((x -. mean) /. n))
  in
  add 0 c.client_wire;
  add 1 c.cpu_queue;
  add 2 c.cpu_service;
  add 3 c.mempool_wait;
  add 4 c.nic_serialization;
  add 5 c.consensus_wait;
  add 6 total

let summarize (t : t) =
  let mean = Float.Array.get t.means in
  {
    samples = t.n;
    client_wire = mean 0;
    cpu_queue = mean 1;
    cpu_service = mean 2;
    mempool_wait = mean 3;
    nic_serialization = mean 4;
    consensus_wait = mean 5;
    total = mean 6;
  }

let components_sum (s : summary) =
  s.client_wire +. s.cpu_queue +. s.cpu_service +. s.mempool_wait
  +. s.nic_serialization +. s.consensus_wait

let pp_summary fmt (s : summary) =
  let ms v = v *. 1000.0 in
  Format.fprintf fmt
    "latency decomposition (%d txs, ms): client wire %.3f | cpu queue %.3f | \
     cpu service %.3f | mempool %.3f | nic %.3f | consensus %.3f | total %.3f"
    s.samples (ms s.client_wire) (ms s.cpu_queue) (ms s.cpu_service)
    (ms s.mempool_wait) (ms s.nic_serialization) (ms s.consensus_wait)
    (ms s.total)
