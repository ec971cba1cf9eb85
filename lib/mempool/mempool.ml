open Bamboo_types
module Deque = Bamboo_util.Deque

type status = Queued | In_flight

(* Open-addressing table from a queued or in-flight tx id to its status,
   over flat arrays: client and seq in two int arrays, the status in one
   byte per slot ('\000' marks an empty slot). Adding or removing an id
   allocates nothing, and a lookup hands back the slot, so [batch] and
   [requeue_front] read and flip a status with one probe.

   Linear probing with Robin Hood placement: an entry never sits farther
   from its home slot than the entry it would pass over, so a lookup
   stops at the first entry closer to home than itself, and a deletion
   shifts the entries after it back by one until an empty slot or an
   entry at home. The table doubles at a load of 1/2: every committed tx
   is removed from all n pools, and at n = 4 three of every four
   removals are misses, which walk a probe run to its end, so short runs
   are worth more than densely packed slots. The initial 256 slots hold 128 txs; a full
   pool at a capacity of 100,000 takes 262,144 slots, about 4.5 MB (two
   int arrays and one status byte a slot). *)
module Live = struct
  type t = {
    mutable clients : int array;
    mutable seqs : int array;
    mutable status : Bytes.t;
    mutable size : int;
  }

  let empty = '\000'
  let code = function Queued -> '\001' | In_flight -> '\002'

  (* 256 slots: small enough that a fresh pool's arrays are minor-heap
     allocations. *)
  let create () =
    {
      clients = Array.make 256 0;
      seqs = Array.make 256 0;
      status = Bytes.make 256 empty;
      size = 0;
    }

  (* Every slot index below is masked, so the three arrays, all of the
     same power-of-two length, are read without bounds checks. *)
  let[@inline] mask t = Array.length t.seqs - 1
  let[@inline] next t i = (i + 1) land mask t
  let[@inline] client_at t i = Array.unsafe_get t.clients i
  let[@inline] seq_at t i = Array.unsafe_get t.seqs i
  let[@inline] code_at t i = Bytes.unsafe_get t.status i

  (* A multiplicative (Fibonacci) mix: the product's middle bits depend
     on every bit of the key, so dense seq runs, and runs a table size
     apart, spread over the table instead of sharing home slots. *)
  let[@inline] home t ~client ~seq =
    (((client * 0x01000193) + seq) * 0x1E3779B97F4A7C15) lsr 23 land mask t

  (* How far the entry in occupied slot [i] sits past its home. *)
  let[@inline] dist t i =
    (i - home t ~client:(client_at t i) ~seq:(seq_at t i)) land mask t

  (* [d] is how far [i] lies past the key's home. *)
  let rec probe t ~client ~seq i d =
    if code_at t i = empty then -1
    else if seq_at t i = seq && client_at t i = client then i
    else if dist t i < d then -1
    else probe t ~client ~seq (next t i) (d + 1)

  (* The slot holding the id, or [-1]. *)
  let find t ~client ~seq = probe t ~client ~seq (home t ~client ~seq) 0

  let mem t ~client ~seq = find t ~client ~seq >= 0
  let status t i = if code_at t i = code Queued then Queued else In_flight
  let set_status t i s = Bytes.unsafe_set t.status i (code s)

  let set t i ~client ~seq c =
    Array.unsafe_set t.clients i client;
    Array.unsafe_set t.seqs i seq;
    Bytes.unsafe_set t.status i c

  (* Places an absent entry [d] slots past its home, at [i] or after,
     taking the slot of the first entry closer to its own home and
     carrying that entry on. *)
  let rec place t ~client ~seq c i d =
    if code_at t i = empty then set t i ~client ~seq c
    else
      let e = dist t i in
      if e < d then begin
        let client' = client_at t i and seq' = seq_at t i and c' = code_at t i in
        set t i ~client ~seq c;
        place t ~client:client' ~seq:seq' c' (next t i) (e + 1)
      end
      else place t ~client ~seq c (next t i) (d + 1)

  let insert t ~client ~seq c = place t ~client ~seq c (home t ~client ~seq) 0

  let grow t =
    let clients = t.clients and seqs = t.seqs and status = t.status in
    let slots = 2 * Array.length seqs in
    t.clients <- Array.make slots 0;
    t.seqs <- Array.make slots 0;
    t.status <- Bytes.make slots empty;
    for i = 0 to Array.length seqs - 1 do
      let c = Bytes.unsafe_get status i in
      if c <> empty then
        insert t ~client:(Array.unsafe_get clients i) ~seq:(Array.unsafe_get seqs i) c
    done

  (* The id must be absent. *)
  let add t ~client ~seq status =
    if 2 * (t.size + 1) > Array.length t.seqs then grow t;
    insert t ~client ~seq (code status);
    t.size <- t.size + 1

  let rec shift t hole =
    let j = next t hole in
    if code_at t j = empty || dist t j = 0 then Bytes.unsafe_set t.status hole empty
    else begin
      set t hole ~client:(client_at t j) ~seq:(seq_at t j) (code_at t j);
      shift t j
    end

  let remove t ~client ~seq =
    let i = find t ~client ~seq in
    if i >= 0 then begin
      shift t i;
      t.size <- t.size - 1
    end

  let max_displacement t =
    let m = ref 0 in
    for i = 0 to mask t do if code_at t i <> empty then m := Int.max !m (dist t i) done;
    !m
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
  let { Tx.client; seq } = tx.id in
  if Deque.length t.queue >= t.cap then begin
    t.n_rejected_full <- t.n_rejected_full + 1;
    false
  end
  else if Live.mem t.live ~client ~seq || Committed.mem t.committed ~client ~seq
  then begin
    t.n_rejected_dup <- t.n_rejected_dup + 1;
    false
  end
  else begin
    Live.add t.live ~client ~seq Queued;
    Deque.push_back t.queue tx;
    let len = Deque.length t.queue in
    if len > t.peak then t.peak <- len;
    true
  end

(* Only a re-queued tx is rebuilt as a record: the queue holds records,
   and a forked block's body keeps none. *)
let requeue_front t body =
  (* Preserve relative order: pushing front in reverse keeps the original
     order at the head of the queue. *)
  let count = ref 0 in
  for k = Body.length body - 1 downto 0 do
    let client = Body.client body k and seq = Body.seq body k in
    let i = Live.find t.live ~client ~seq in
    (* A miss is a tx committed, or not from this replica's pool: the
       forked block was proposed by another node; its proposer re-queues
       it there. *)
    if i >= 0 && Live.status t.live i = In_flight then
      if Deque.length t.queue < t.cap then begin
        Live.set_status t.live i Queued;
        Deque.push_front t.queue (Body.tx body k);
        incr count
      end
      else Live.remove t.live ~client ~seq
  done;
  let len = Deque.length t.queue in
  if len > t.peak then t.peak <- len;
  !count

let batch t ~max =
  if max < 0 then invalid_arg "Mempool.batch: negative max";
  let b = Body.Builder.create (Int.min max (Deque.length t.queue)) in
  let rec take () =
    if Body.Builder.length b < max then
      match Deque.pop_front t.queue with
      | None -> ()
      | Some (tx : Tx.t) ->
          (* Every queued tx is live until it commits; a miss is a tx
             committed meanwhile through a block proposed elsewhere
             (client-broadcast mode), so it is dropped. *)
          let i = Live.find t.live ~client:tx.id.client ~seq:tx.id.seq in
          if i >= 0 then begin
            Live.set_status t.live i In_flight;
            Body.Builder.add_tx b tx
          end;
          take ()
  in
  take ();
  let taken = Body.Builder.finish b in
  t.n_batches <- t.n_batches + 1;
  t.n_batched <- t.n_batched + Body.length taken;
  taken

let forget t body =
  for i = 0 to Body.length body - 1 do
    let client = Body.client body i and seq = Body.seq body i in
    Live.remove t.live ~client ~seq;
    ignore (Committed.add t.committed ~client ~seq : bool)
  done

let contains t (id : Tx.id) = Live.mem t.live ~client:id.client ~seq:id.seq
let max_displacement t = Live.max_displacement t.live
