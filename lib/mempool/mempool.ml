open Bamboo_types
module Deque = Bamboo_util.Deque

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
  committed : Committed.t;
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
    committed = Committed.create ();
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

let add t (tx : Tx.t) =
  if Deque.length t.queue >= t.cap then begin
    t.n_rejected_full <- t.n_rejected_full + 1;
    false
  end
  else if Live.mem t.live tx.id || Committed.mem t.committed tx.id then begin
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
      ignore (Committed.add t.committed tx.Tx.id : bool))
    txs

let contains t id = Live.mem t.live id
