module Stats = Bamboo_util.Stats

type t = {
  warmup : float;
  horizon : float;
  bucket : float;
  latencies : Stats.t;
  intervals : Stats.t;
  mutable committed_txs : int;
  mutable committed_blocks : int;
  mutable forked_blocks : int;
  appended : (string, unit) Hashtbl.t;
      (* hashes of blocks the observer accepted inside the window whose
         fate is not yet decided: a commit or a fork removes its entry *)
  mutable matched_commits : int;
      (* committed blocks that were appended inside the window *)
  mutable matched_forks : int;
      (* overwritten blocks that were appended inside the window *)
  mutable first_view : int;
  mutable last_view : int;
  buckets : (int, int) Hashtbl.t; (* bucket index -> committed txs *)
  mutable max_bucket : int;
  mutable staged : int;
  stages : Float.Array.t;
      (* running means of the six stages in [decomposition]'s field
         order, then the total: [decomposition] reads nothing else, so no
         sample is stored *)
}

type summary = {
  protocol : string;
  duration : float;
  committed_txs : int;
  committed_blocks : int;
  forked_blocks : int;
  throughput : float;
  latency_mean : float;
  latency_p50 : float;
  latency_p95 : float;
  latency_p99 : float;
  latency_samples : int;
  views : int;
  cgr : float;
  block_interval : float;
  rejected_txs : int;
  safety_violation : bool;
}

type decomposition = {
  samples : int;
  client_wire : float;
  cpu_queue : float;
  cpu_service : float;
  mempool_wait : float;
  nic_serialization : float;
  consensus_wait : float;
  total : float;
}

let create ~warmup ~horizon ~bucket =
  if horizon <= warmup then invalid_arg "Metrics.create: horizon before warmup";
  if bucket <= 0.0 then invalid_arg "Metrics.create: bucket must be positive";
  {
    warmup;
    horizon;
    bucket;
    latencies = Stats.create ();
    intervals = Stats.create ();
    committed_txs = 0;
    committed_blocks = 0;
    forked_blocks = 0;
    appended = Hashtbl.create 1024;
    matched_commits = 0;
    matched_forks = 0;
    first_view = 0;
    last_view = 0;
    buckets = Hashtbl.create 64;
    max_bucket = 0;
    staged = 0;
    stages = Float.Array.make 7 0.0;
  }

let in_window t ~now = now >= t.warmup && now < t.horizon

(* A tx's latency counts when it was issued after warmup and completed
   before the horizon. *)
let[@inline] measured t ~now ~issued_at = issued_at >= t.warmup && now < t.horizon

let[@inline] record_latency t ~now ~issued_at ~latency =
  let counted = measured t ~now ~issued_at in
  if counted then Stats.add t.latencies latency;
  counted

(* Each mean takes the update [Stats.add] applies, which keeps the printed
   decomposition bit-identical to a sample-storing one. *)
let[@inline] add_mean means slot n x =
  let mean = Float.Array.get means slot in
  Float.Array.set means slot (mean +. ((x -. mean) /. n))

(* Inlined into the caller, so the floats arrive unboxed. *)
let[@inline] record_stages t ~now ~issued_at ~client_wire ~cpu_queue
    ~cpu_service ~mempool_wait ~nic_serialization =
  if measured t ~now ~issued_at then begin
    t.staged <- t.staged + 1;
    let n = float_of_int t.staged in
    let m = t.stages in
    let total = now -. issued_at in
    add_mean m 0 n client_wire;
    add_mean m 1 n cpu_queue;
    add_mean m 2 n cpu_service;
    add_mean m 3 n mempool_wait;
    add_mean m 4 n nic_serialization;
    add_mean m 5 n
      (total -. client_wire -. cpu_queue -. cpu_service -. mempool_wait
     -. nic_serialization);
    add_mean m 6 n total
  end

let record_commit t ~now ~ntxs ~nblocks ~hashes =
  (* The time series spans the whole run; aggregate counters only the
     measurement window. *)
  let idx = int_of_float (now /. t.bucket) in
  let prev = match Hashtbl.find_opt t.buckets idx with None -> 0 | Some v -> v in
  Hashtbl.replace t.buckets idx (prev + ntxs);
  if idx > t.max_bucket then t.max_bucket <- idx;
  if in_window t ~now then begin
    t.committed_txs <- t.committed_txs + ntxs;
    t.committed_blocks <- t.committed_blocks + nblocks;
    List.iter
      (fun h ->
        if Hashtbl.mem t.appended h then begin
          Hashtbl.remove t.appended h;
          t.matched_commits <- t.matched_commits + 1
        end)
      hashes
  end

let record_block_interval t ~now ~views =
  if in_window t ~now then Stats.add t.intervals (float_of_int views)

let record_fork t ~now ~nblocks ~hashes =
  if in_window t ~now then begin
    t.forked_blocks <- t.forked_blocks + nblocks;
    List.iter
      (fun h ->
        if Hashtbl.mem t.appended h then begin
          Hashtbl.remove t.appended h;
          t.matched_forks <- t.matched_forks + 1
        end)
      hashes
  end

let record_append t ~now ~hash =
  if in_window t ~now then Hashtbl.replace t.appended hash ()

let set_view_span t ~first ~last =
  t.first_view <- first;
  t.last_view <- last

let summarize t ~protocol ~rejected_txs ~safety_violation =
  let duration = t.horizon -. t.warmup in
  let views = max 0 (t.last_view - t.first_view) in
  {
    protocol;
    duration;
    committed_txs = t.committed_txs;
    committed_blocks = t.committed_blocks;
    forked_blocks = t.forked_blocks;
    throughput = float_of_int t.committed_txs /. duration;
    latency_mean = Stats.mean t.latencies;
    latency_p50 = Stats.percentile t.latencies 50.0;
    latency_p95 = Stats.percentile t.latencies 95.0;
    latency_p99 = Stats.percentile t.latencies 99.0;
    latency_samples = Stats.count t.latencies;
    views;
    cgr =
      (* Of the blocks the observer accepted inside the window, the
         fraction that survived to commitment: exactly 1.0 when nothing is
         overwritten. Blocks accepted near the horizon that have not yet
         had time to commit are excluded from the denominator (their
         commit-or-overwrite outcome is unknown). *)
      (let resolved = t.matched_commits + t.matched_forks in
       if resolved = 0 then 0.0
       else float_of_int t.matched_commits /. float_of_int resolved);
    block_interval = Stats.mean t.intervals;
    rejected_txs;
    safety_violation;
  }

let decomposition t =
  let mean = Float.Array.get t.stages in
  {
    samples = t.staged;
    client_wire = mean 0;
    cpu_queue = mean 1;
    cpu_service = mean 2;
    mempool_wait = mean 3;
    nic_serialization = mean 4;
    consensus_wait = mean 5;
    total = mean 6;
  }

let throughput_series t =
  List.init (t.max_bucket + 1) (fun i ->
      let txs = match Hashtbl.find_opt t.buckets i with None -> 0 | Some v -> v in
      (float_of_int i *. t.bucket, float_of_int txs /. t.bucket))

let pp_summary fmt s =
  Format.fprintf fmt
    "%s: %.0f tx/s, latency %.2f ms (p95 %.2f), CGR %.3f, BI %.2f, %d forked%s"
    s.protocol s.throughput
    (s.latency_mean *. 1000.0)
    (s.latency_p95 *. 1000.0)
    s.cgr s.block_interval s.forked_blocks
    (if s.safety_violation then " [SAFETY VIOLATION]" else "")

let pp_decomposition fmt d =
  let ms v = v *. 1000.0 in
  Format.fprintf fmt
    "latency decomposition (%d txs, ms): client wire %.3f | cpu queue %.3f | \
     cpu service %.3f | mempool %.3f | nic %.3f | consensus %.3f | total %.3f"
    d.samples (ms d.client_wire) (ms d.cpu_queue) (ms d.cpu_service)
    (ms d.mempool_wait) (ms d.nic_serialization) (ms d.consensus_wait)
    (ms d.total)
