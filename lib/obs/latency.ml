(* Running means only: [summarize] reads nothing else, so no sample is
   stored. Each mean takes the update [Stats.add] applies, which keeps the
   printed decomposition bit-identical to a sample-storing one. *)
type t = {
  mutable n : int;
  means : Float.Array.t;
      (* the six components in [record]'s order, then the total *)
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

let[@inline] add means slot n x =
  let mean = Float.Array.get means slot in
  Float.Array.set means slot (mean +. ((x -. mean) /. n))

(* Inlined into the caller, so the seven floats arrive unboxed. *)
let[@inline] record (t : t) ~client_wire ~cpu_queue ~cpu_service ~mempool_wait
    ~nic_serialization ~consensus_wait ~total =
  t.n <- t.n + 1;
  let n = float_of_int t.n in
  let m = t.means in
  add m 0 n client_wire;
  add m 1 n cpu_queue;
  add m 2 n cpu_service;
  add m 3 n mempool_wait;
  add m 4 n nic_serialization;
  add m 5 n consensus_wait;
  add m 6 n total

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
