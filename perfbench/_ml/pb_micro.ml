(* Unit costs of single layers, measured from outside by timing calls
   into each layer's public functions at a workload's parameters. The
   traced run multiplies them by the workload's event counts to attribute
   wall time; whatever the products do not cover is the residual. *)

open Bamboo_types
module Stats = Bamboo_util.Stats

let now = Unix.gettimeofday

(* Median over [reps] batches of the per-call cost of [f], in seconds.
   Each batch runs long enough (>= [batch_s]) for the wall clock to
   resolve it. *)
let per_call f =
  let reps = 5 and batch_s = 0.01 in
  let iters = ref 1 in
  let time_batch k =
    let t0 = now () in
    for _ = 1 to k do
      f ()
    done;
    now () -. t0
  in
  while time_batch !iters < batch_s do
    iters := !iters * 2
  done;
  Pb_stats.median
    (List.init reps (fun _ -> time_batch !iters /. float_of_int !iters))

type params = {
  n : int;  (** Replicas. *)
  psize : int;  (** Transaction payload bytes. *)
  block_txs : int;  (** The workload's mean transactions per block. *)
  queue_depth : int;  (** Event-queue depth to measure at. *)
}

type costs = {
  tx_make_ns : float;
  block_create_flat_us : float;
  block_create_merkle_us : float;
  codec_encode_block_us : float;
  codec_decode_block_us : float;
  forest_add_us : float;
  quorum_qc_us : float;
  hmac_ns : float;
  sha256_1kib_ns : float;
  mempool_add_batch_ns_per_tx : float;
  eventq_ns : float;
}

let txs ~psize ~count ~base =
  List.init count (fun i -> Tx.make ~client:7 ~seq:(base + i) ~payload_len:psize)

let justify = Qc.genesis ~block:Block.genesis_hash

let block ?(root = `Merkle) ~view ~parent txs =
  Block.create ~root ~view ~parent ~justify ~proposer:0 ~txs ()

(* One schedule + fire of the simulator's event queue at a steady depth:
   every fired event schedules its successor a random delay ahead. *)
let eventq_seconds ~depth =
  let module Sim = Bamboo_sim.Sim in
  let sim = Sim.create () in
  let rng = Bamboo_util.Rng.create ~seed:11 in
  let delays = Array.init 4096 (fun _ -> Bamboo_util.Rng.float rng 1e-3) in
  let k = ref 0 in
  let rec ev () =
    incr k;
    Sim.schedule sim ~delay:delays.(!k land 4095) ev
  in
  for _ = 1 to depth do
    ev ()
  done;
  (* Mean delay 0.5 ms: advancing the clock by [dt] fires ~depth*dt/0.5ms. *)
  let batch = 200_000 in
  let dt = float_of_int batch *. 5e-4 /. float_of_int depth in
  Pb_stats.median
    (List.init 5 (fun _ ->
         let f0 = Sim.fired sim in
         let t0 = now () in
         Sim.run_until sim (Sim.now sim +. dt);
         let t1 = now () in
         (t1 -. t0) /. float_of_int (max 1 (Sim.fired sim - f0))))

let measure p =
  let block_txs = max 1 p.block_txs in
  let payload = txs ~psize:p.psize ~count:block_txs ~base:0 in
  let seq = ref 1_000_000 in
  let tx_make =
    per_call (fun () ->
        incr seq;
        ignore
          (Sys.opaque_identity (Tx.make ~client:7 ~seq:!seq ~payload_len:p.psize)))
  in
  let flat =
    per_call (fun () ->
        ignore
          (Sys.opaque_identity
             (block ~root:`Flat ~view:1 ~parent:Block.genesis payload)))
  in
  let merkle =
    per_call (fun () ->
        ignore (Sys.opaque_identity (block ~view:1 ~parent:Block.genesis payload)))
  in
  let b = block ~view:1 ~parent:Block.genesis payload in
  let buf = Buffer.create 4096 in
  let encode =
    per_call (fun () ->
        Buffer.clear buf;
        Codec.encode_block buf b)
  in
  let encoded =
    Buffer.clear buf;
    Codec.encode_block buf b;
    Buffer.contents buf
  in
  let decode =
    per_call (fun () ->
        ignore (Sys.opaque_identity (Codec.decode_block encoded ~pos:(ref 0))))
  in
  let chain_len = 64 in
  let chain =
    let rec go acc parent v =
      if v > chain_len then List.rev acc
      else
        let blk = block ~root:`Flat ~view:v ~parent [] in
        go (blk :: acc) blk (v + 1)
    in
    go [] Block.genesis 1
  in
  let forest_add =
    per_call (fun () ->
        let f = Bamboo_forest.Forest.create () in
        List.iter
          (fun blk -> ignore (Sys.opaque_identity (Bamboo_forest.Forest.add f blk)))
          chain)
    /. float_of_int chain_len
  in
  let registry = Bamboo_crypto.Sig.setup ~n:p.n ~master:"perfbench" in
  let votes =
    List.init p.n (fun voter ->
        Vote.create registry ~voter ~block:b.Block.hash ~view:1 ~height:1)
  in
  let qc =
    per_call (fun () ->
        let q = Bamboo_quorum.Quorum.create ~n:p.n in
        let rec feed = function
          | [] -> failwith "quorum never formed"
          | v :: rest -> (
              match Bamboo_quorum.Quorum.voted q v with
              | Some qc -> ignore (Sys.opaque_identity qc)
              | None -> feed rest)
        in
        feed votes)
  in
  let vote_payload = Qc.signed_payload ~block:b.Block.hash ~view:1 in
  let hmac =
    per_call (fun () ->
        ignore
          (Sys.opaque_identity
             (Bamboo_crypto.Hmac.mac ~key:"perfbench-key" vote_payload)))
  in
  let kib = String.make 1024 'x' in
  let sha =
    per_call (fun () -> ignore (Sys.opaque_identity (Bamboo_crypto.Sha256.digest kib)))
  in
  let mempool =
    per_call (fun () ->
        let m = Bamboo_mempool.Mempool.create ~capacity:block_txs () in
        List.iter (fun tx -> ignore (Bamboo_mempool.Mempool.add m tx : bool)) payload;
        let batch = Bamboo_mempool.Mempool.batch m ~max:block_txs in
        Bamboo_mempool.Mempool.forget m batch)
    /. float_of_int block_txs
  in
  {
    tx_make_ns = tx_make *. 1e9;
    block_create_flat_us = flat *. 1e6;
    block_create_merkle_us = merkle *. 1e6;
    codec_encode_block_us = encode *. 1e6;
    codec_decode_block_us = decode *. 1e6;
    forest_add_us = forest_add *. 1e6;
    quorum_qc_us = qc *. 1e6;
    hmac_ns = hmac *. 1e9;
    sha256_1kib_ns = sha *. 1e9;
    mempool_add_batch_ns_per_tx = mempool *. 1e9;
    eventq_ns = eventq_seconds ~depth:(max 16 p.queue_depth) *. 1e9;
  }

(* Per-call latency of a replica's submit path ([Node.handle (Submit _)])
   on a standalone node, for the simulator planes where no client thread
   calls [submit_admission]. Calls are timed in groups of [group] (one
   call is far below the clock's resolution); the percentiles are over
   group means. *)
let node_submit_seconds ~config ~samples =
  let group = 500 in
  let registry = Bamboo_crypto.Sig.setup ~n:config.Bamboo.Config.n ~master:"perfbench" in
  let fresh () =
    let node =
      Bamboo.Node.create ~config ~self:0 ~registry ~verify_sigs:false ~root:`Flat ()
    in
    ignore (Bamboo.Node.start node : Bamboo.Node.output list);
    node
  in
  let out = Stats.create () in
  let node = ref (fresh ()) in
  let seq = ref 0 in
  for s = 1 to samples do
    (* Keep the pool far from its capacity: a fresh node every 4 groups. *)
    if s mod 4 = 0 then node := fresh ();
    let batch =
      List.init group (fun _ ->
          incr seq;
          Tx.make ~client:9 ~seq:!seq ~payload_len:config.Bamboo.Config.psize)
    in
    let t0 = now () in
    List.iter
      (fun tx -> ignore (Bamboo.Node.handle !node (Bamboo.Node.Submit [ tx ])))
      batch;
    Stats.add out ((now () -. t0) /. float_of_int group)
  done;
  out

let metrics c =
  Pb_out.
    [
      m "sim.eventq_ns" "ns" c.eventq_ns;
      m "mempool.add_batch_ns_per_tx" "ns" c.mempool_add_batch_ns_per_tx;
      m "tx.make_ns" "ns" c.tx_make_ns;
      m "block.create_flat_us" "us" c.block_create_flat_us;
      m "block.create_merkle_us" "us" c.block_create_merkle_us;
      m "codec.encode_block_us" "us" c.codec_encode_block_us;
      m "codec.decode_block_us" "us" c.codec_decode_block_us;
      m "forest.add_us" "us" c.forest_add_us;
      m "quorum.qc_us" "us" c.quorum_qc_us;
      m "crypto.hmac_ns" "ns" c.hmac_ns;
      m "crypto.sha256_1KiB_ns" "ns" c.sha256_1kib_ns;
    ]
