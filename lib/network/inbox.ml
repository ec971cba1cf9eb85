(* Wall-clock reads turn receive timeouts into park deadlines on the
   threaded transports; determinism claims only cover the simulator path. *)
[@@@lint.allow "no-ambient-nondeterminism"]

module Ring = Bamboo_util.Ring

let push_retries = 64
let hist_buckets = 12 (* log2 buckets: batch sizes 1 .. 2048+ *)

type t = {
  ring : Bamboo_types.Message.t Ring.t;
  bell : Wakeup.doorbell;
  dropped : int Atomic.t; (* bumped by any producer *)
  (* Consumer-side tallies: owned by the single receiver thread. *)
  mutable received : int;
  mutable batches : int;
  mutable peak_depth : int;
  batch_hist : int array;
}

type stats = {
  received : int;
  batches : int;
  batch_hist : int array;
  peak_depth : int;
  dropped : int;
}

let create ~capacity =
  {
    ring = Ring.create ~capacity ();
    bell = Wakeup.doorbell ();
    dropped = Atomic.make 0;
    received = 0;
    batches = 0;
    peak_depth = 0;
    batch_hist = Array.make hist_buckets 0;
  }

let push t msg =
  let rec go tries =
    match Ring.push t.ring msg with
    | Ring.Pushed ->
        Wakeup.ring t.bell;
        true
    | Ring.Closed -> false (* crash faults look like silence *)
    | Ring.Full ->
        if tries >= push_retries then begin
          Atomic.incr t.dropped;
          false
        end
        else begin
          (* Bounded backpressure: give the consumer a chance to drain,
             then drop. *)
          Thread.yield ();
          go (tries + 1)
        end
  in
  go 0

let log2_bucket k =
  let rec go b k = if k <= 1 || b = hist_buckets - 1 then b else go (b + 1) (k lsr 1) in
  go 0 k

let take t ~max =
  let depth = Ring.length t.ring in
  if depth > t.peak_depth then t.peak_depth <- depth;
  let acc = ref [] in
  let taken = Ring.drain t.ring ~max (fun m -> acc := m :: !acc) in
  if taken > 0 then begin
    t.received <- t.received + taken;
    t.batches <- t.batches + 1;
    let b = log2_bucket taken in
    t.batch_hist.(b) <- t.batch_hist.(b) + 1
  end;
  List.rev !acc

let recv_batch t ~timeout_s ~max =
  if Ring.is_closed t.ring then []
  else
    match take t ~max with
    | _ :: _ as msgs -> msgs
    | [] ->
        let deadline = Unix.gettimeofday () +. timeout_s in
        let ready () = Ring.is_closed t.ring || not (Ring.is_empty t.ring) in
        if Wakeup.park t.bell ~deadline ~ready && not (Ring.is_closed t.ring)
        then take t ~max
        else []

let recv t ~timeout_s =
  match recv_batch t ~timeout_s ~max:1 with m :: _ -> Some m | [] -> None

let close t = if Ring.close t.ring then Wakeup.ring t.bell

let stats (t : t) : stats =
  {
    received = t.received;
    batches = t.batches;
    batch_hist = Array.copy t.batch_hist;
    peak_depth = t.peak_depth;
    dropped = Atomic.get t.dropped;
  }
