open Bamboo_types
module Deque = Bamboo_util.Deque

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

(* The committed sequence numbers of one client: a contiguous run
   [lo, hi) plus a sparse bitmap of the seqs committed outside it, in
   32-seq words keyed by [seq asr 5]. Blocks commit each proposer's FIFO
   slice in order, so commits arrive nearly in seq order: the run absorbs
   the bitmap as gaps fill and the set stays the size of the reorder
   window. A seq that never commits (a tx some pool refused) pins [hi];
   above it a full word costs one table entry per 32 seqs. *)
type seqs = {
  client : int;
  mutable lo : int;
  mutable hi : int;
  mutable min_seq : int;
  mutable max_seq : int;
      (* extremes ever added: no sparse bit lies outside them *)
  sparse : int Int_tbl.t;
}

let word_bits = 5
let bit s = 1 lsl (s land ((1 lsl word_bits) - 1))
let word c k = match Int_tbl.find c.sparse k with w -> w | exception Not_found -> 0

let seqs_mem c s =
  (c.lo <= s && s < c.hi)
  || s >= c.min_seq && s <= c.max_seq
     && word c (s asr word_bits) land bit s <> 0

(* A bitmap that empties also gives back the buckets a burst of
   out-of-order commits grew. *)
let set_word c k w =
  if w <> 0 then Int_tbl.replace c.sparse k w
  else begin
    Int_tbl.remove c.sparse k;
    if Int_tbl.length c.sparse = 0 then Int_tbl.reset c.sparse
  end

(* Advance [hi] over the bitmap's consecutive set bits starting at it,
   one word at a time. *)
let rec absorb_up c =
  if c.hi <= c.max_seq then begin
    let k = c.hi asr word_bits in
    let w = word c k in
    let off = c.hi land ((1 lsl word_bits) - 1) in
    let rec ones x n = if x land 1 = 1 then ones (x lsr 1) (n + 1) else n in
    let run = ones (w lsr off) 0 in
    if run > 0 then begin
      set_word c k (w land lnot (((1 lsl run) - 1) lsl off));
      c.hi <- c.hi + run;
      if c.hi land ((1 lsl word_bits) - 1) = 0 then absorb_up c
    end
  end

let rec absorb_down c =
  if c.lo > c.min_seq then begin
    let s = c.lo - 1 in
    let k = s asr word_bits in
    let w = word c k in
    if w land bit s <> 0 then begin
      set_word c k (w land lnot (bit s));
      c.lo <- s;
      absorb_down c
    end
  end

let seqs_add c s =
  if not (c.lo <= s && s < c.hi) then begin
    if s > c.max_seq then c.max_seq <- s;
    if s < c.min_seq then c.min_seq <- s;
    if s = c.hi && s < max_int then begin
      c.hi <- s + 1;
      absorb_up c
    end
    else if s = c.lo - 1 && c.lo > min_int then begin
      c.lo <- s;
      absorb_down c
    end
    else
      let k = s asr word_bits in
      set_word c k (word c k lor bit s)
  end

type status = Queued | In_flight

(* Chained hash table from a queued or in-flight tx id to its status.
   Hash and equality are inlined rather than passed through a functor, and
   a lookup hands back the mutable cell, so [batch] and [requeue_front]
   read and flip a status with one walk. *)
module Live = struct
  type cell =
    | Nil
    | Cell of {
        client : int;
        seq : int;
        mutable status : status;
        mutable next : cell;
      }

  type t = { mutable buckets : cell array; mutable size : int }

  let create () = { buckets = Array.make 256 Nil; size = 0 }

  let index t ~client ~seq =
    ((client * 0x01000193) lxor seq) land (Array.length t.buckets - 1)

  let rec walk (id : Tx.id) = function
    | Nil -> Nil
    | Cell c as cell ->
        if c.seq = id.seq && c.client = id.client then cell else walk id c.next

  let find t (id : Tx.id) =
    walk id (Array.unsafe_get t.buckets (index t ~client:id.client ~seq:id.seq))

  let mem t id = match find t id with Nil -> false | Cell _ -> true

  let rec rehash t = function
    | Nil -> ()
    | Cell c ->
        let next = c.next in
        let i = index t ~client:c.client ~seq:c.seq in
        c.next <- t.buckets.(i);
        t.buckets.(i) <- Cell c;
        rehash t next

  (* [id] must be absent. *)
  let add t (id : Tx.id) status =
    if t.size >= 2 * Array.length t.buckets then begin
      let old = t.buckets in
      t.buckets <- Array.make (2 * Array.length old) Nil;
      Array.iter (rehash t) old
    end;
    let i = index t ~client:id.client ~seq:id.seq in
    t.buckets.(i) <-
      Cell { client = id.client; seq = id.seq; status; next = t.buckets.(i) };
    t.size <- t.size + 1

  let remove t (id : Tx.id) =
    let i = index t ~client:id.client ~seq:id.seq in
    let rec unlink prev = function
      | Nil -> ()
      | Cell c as cell ->
          if c.seq = id.seq && c.client = id.client then begin
            (match prev with
            | Nil -> t.buckets.(i) <- c.next
            | Cell p -> p.next <- c.next);
            t.size <- t.size - 1
          end
          else unlink cell c.next
    in
    unlink Nil t.buckets.(i)
end

(* The queue holds every [Queued] tx, plus stale entries for txs
   committed while still queued (client-broadcast mode), which [batch]
   drops. [live] holds exactly the [Queued] and [In_flight] txs, so it is
   bounded by capacity plus what is in flight; a committed tx leaves it
   for [committed], which is consulted only on a [live] miss. *)
type t = {
  queue : Tx.t Deque.t;
  live : Live.t;
  committed : seqs Int_tbl.t; (* by client *)
  mutable last : seqs option; (* the last client looked up *)
  cap : int;
  (* observe-only tallies, surfaced through [stats] *)
  mutable peak : int;
  mutable n_batches : int;
  mutable n_batched : int;
  mutable n_rejected_full : int;
  mutable n_rejected_dup : int;
}

type stats = {
  peak_occupancy : int;
  batches : int;
  batched_txs : int;
  rejected_full : int;
  rejected_dup : int;
}

let create ?(capacity = 1000) () =
  if capacity <= 0 then invalid_arg "Mempool.create: capacity must be positive";
  {
    queue = Deque.create ();
    live = Live.create ();
    committed = Int_tbl.create 8;
    last = None;
    cap = capacity;
    peak = 0;
    n_batches = 0;
    n_batched = 0;
    n_rejected_full = 0;
    n_rejected_dup = 0;
  }

let stats t =
  {
    peak_occupancy = t.peak;
    batches = t.n_batches;
    batched_txs = t.n_batched;
    rejected_full = t.n_rejected_full;
    rejected_dup = t.n_rejected_dup;
  }

let length t = Deque.length t.queue
let is_empty t = Deque.is_empty t.queue
let capacity t = t.cap

(* [last] is [None] only while nothing has committed. *)
let seqs_of t client =
  match t.last with
  | Some c when c.client = client -> t.last
  | None -> None
  | Some _ ->
      let found = Int_tbl.find_opt t.committed client in
      if Option.is_some found then t.last <- found;
      found

let is_committed t (id : Tx.id) =
  match seqs_of t id.client with
  | Some c -> seqs_mem c id.seq
  | None -> false

let mark_committed t (id : Tx.id) =
  match seqs_of t id.client with
  | Some c -> seqs_add c id.seq
  | None ->
      let s = id.seq in
      let c =
        {
          client = id.client;
          lo = s;
          hi = s;
          min_seq = s;
          max_seq = s;
          sparse = Int_tbl.create 16;
        }
      in
      seqs_add c s;
      Int_tbl.replace t.committed id.client c;
      t.last <- Some c

let add t (tx : Tx.t) =
  if Deque.length t.queue >= t.cap then begin
    t.n_rejected_full <- t.n_rejected_full + 1;
    false
  end
  else if Live.mem t.live tx.id || is_committed t tx.id then begin
    t.n_rejected_dup <- t.n_rejected_dup + 1;
    false
  end
  else begin
    Live.add t.live tx.id Queued;
    Deque.push_back t.queue tx;
    let len = Deque.length t.queue in
    if len > t.peak then t.peak <- len;
    true
  end

let requeue_front t txs =
  (* Preserve relative order: pushing front in reverse keeps the original
     order at the head of the queue. *)
  let count = ref 0 in
  List.iter
    (fun (tx : Tx.t) ->
      match Live.find t.live tx.id with
      | Live.Cell ({ status = In_flight; _ } as c) ->
          if Deque.length t.queue < t.cap then begin
            c.status <- Queued;
            Deque.push_front t.queue tx;
            incr count
          end
          else Live.remove t.live tx.id
      | Live.Cell { status = Queued; _ } -> ()
      | Live.Nil ->
          (* Committed, or not from this replica's pool: the forked block
             was proposed by another node; its proposer re-queues it
             there. *)
          ())
    (List.rev txs);
  let len = Deque.length t.queue in
  if len > t.peak then t.peak <- len;
  !count

let batch t ~max =
  if max < 0 then invalid_arg "Mempool.batch: negative max";
  let rec take acc k =
    if k = 0 then List.rev acc
    else
      match Deque.pop_front t.queue with
      | None -> List.rev acc
      | Some (tx : Tx.t) -> (
          (* Every queued tx is live until it commits; a miss is a tx
             committed meanwhile through a block proposed elsewhere
             (client-broadcast mode), so it is dropped. *)
          match Live.find t.live tx.id with
          | Live.Cell c ->
              c.status <- In_flight;
              take (tx :: acc) (k - 1)
          | Live.Nil -> take acc k)
  in
  let taken = take [] max in
  t.n_batches <- t.n_batches + 1;
  t.n_batched <- t.n_batched + List.length taken;
  taken

let forget t txs =
  List.iter
    (fun (tx : Tx.t) ->
      Live.remove t.live tx.Tx.id;
      mark_committed t tx.Tx.id)
    txs

let contains t id = Live.mem t.live id
