open Bamboo_types

type stamp =
  | Issued_at
  | Submit_wire
  | Ingest_wait
  | Ingest_service
  | Arrived_at
  | Batched_at
  | Propose_wait
  | Propose_service
  | Nic_ser

let column = function
  | Issued_at -> 0
  | Submit_wire -> 1
  | Ingest_wait -> 2
  | Ingest_service -> 3
  | Arrived_at -> 4
  | Batched_at -> 5
  | Propose_wait -> 6
  | Propose_service -> 7
  | Nic_ser -> 8

let columns = 9
let recorded = 1
let completed_bit = 2
let counted_bit = 4

(* Slots live in fixed-size chunks, allocated as the seqs reach them:
   growing never copies a slot or leaves a discarded array behind, and a
   run holds at most one partly used chunk. A chunk is small enough for
   the allocator to hand a finished run's chunks to the next run.

   A chunk has two parts. Client, target and flags outlive completion:
   [find], [completed] and [counted] read them for as long as the run
   lasts. The stamp columns are read once, when the tx completes, so a
   chunk whose recorded slots have all completed gives its stamp array
   back to a spare list once a newer chunk exists, and the next chunk
   takes it from there instead of allocating one. *)
let chunk_bits = 10
let chunk_slots = 1 lsl chunk_bits
let offset_mask = chunk_slots - 1

type chunk = {
  client : int array;
  target : int array;
  flags : Bytes.t;
  mutable stamps : Float.Array.t;
      (* [columns] columns of [chunk_slots] stamps; [no_stamps] once
         released *)
  mutable pending : int; (* recorded slots not yet completed *)
}

type t = {
  mutable chunks : chunk array; (* chunk [i] holds slots from [i lsl chunk_bits] *)
  mutable used : int; (* chunks allocated, a prefix of [chunks] *)
  mutable spare : Float.Array.t list; (* released stamp arrays *)
}

(* Zero-length, so reading or writing a stamp of a chunk without stamp
   storage fails the bounds check. *)
let no_stamps = Float.Array.create 0

(* Fills the directory past [used]: a slot there has no storage, so
   reading or writing it raises. *)
let absent =
  {
    client = [||];
    target = [||];
    flags = Bytes.empty;
    stamps = no_stamps;
    pending = 0;
  }

let create () = { chunks = [||]; used = 0; spare = [] }

let take_stamps t =
  match t.spare with
  | s :: rest ->
      t.spare <- rest;
      s
  | [] -> Float.Array.make (columns * chunk_slots) 0.0

let release_stamps t c =
  t.spare <- c.stamps :: t.spare;
  c.stamps <- no_stamps

let new_chunk t =
  {
    client = Array.make chunk_slots 0;
    target = Array.make chunk_slots 0;
    flags = Bytes.make chunk_slots '\000';
    stamps = take_stamps t;
    pending = 0;
  }

let add_chunk t =
  if t.used = Array.length t.chunks then begin
    let chunks = Array.make (max 16 (2 * t.used)) absent in
    Array.blit t.chunks 0 chunks 0 t.used;
    t.chunks <- chunks
  end;
  (* The newest chunk keeps its stamps while it has none pending: seqs
     still to come land in it. Once it is no longer the newest, nothing
     pending means nothing left to read. *)
  (if t.used > 0 then
     let prev = t.chunks.(t.used - 1) in
     if prev.pending = 0 then release_stamps t prev);
  t.chunks.(t.used) <- new_chunk t;
  t.used <- t.used + 1

let chunk t slot = t.chunks.(slot lsr chunk_bits)
let offset slot = slot land offset_mask
let flags c off = Char.code (Bytes.get c.flags off)

let set_flag t slot bit =
  let c = chunk t slot and off = offset slot in
  Bytes.set c.flags off (Char.unsafe_chr (flags c off lor bit))

let[@inline] set t slot s v =
  Float.Array.set (chunk t slot).stamps ((column s lsl chunk_bits) + offset slot) v

let[@inline] stamp t slot s =
  Float.Array.get (chunk t slot).stamps ((column s lsl chunk_bits) + offset slot)

let record t (tx : Tx.t) ~target ~issued_at =
  let slot = tx.id.seq in
  if slot < 0 then invalid_arg "Tx_records.record: negative seq";
  while slot lsr chunk_bits >= t.used do
    add_chunk t
  done;
  let c = chunk t slot and off = offset slot in
  if Float.Array.length c.stamps = 0 then c.stamps <- take_stamps t;
  if flags c off land (recorded lor completed_bit) <> recorded then
    c.pending <- c.pending + 1;
  c.client.(off) <- tx.id.client;
  c.target.(off) <- target;
  Bytes.set c.flags off (Char.chr recorded);
  set t slot Issued_at issued_at;
  set t slot Submit_wire 0.0;
  set t slot Ingest_wait 0.0;
  set t slot Ingest_service 0.0;
  set t slot Arrived_at (-1.0);
  set t slot Batched_at (-1.0);
  set t slot Propose_wait 0.0;
  set t slot Propose_service 0.0;
  set t slot Nic_ser 0.0

let find t ~client ~seq =
  let slot = seq in
  if slot >= 0 && slot lsr chunk_bits < t.used then begin
    let c = chunk t slot and off = offset slot in
    if flags c off land recorded <> 0 && c.client.(off) = client then slot
    else -1
  end
  else -1

let target t slot = (chunk t slot).target.(offset slot)
let client t slot = (chunk t slot).client.(offset slot)
let completed t slot = flags (chunk t slot) (offset slot) land completed_bit <> 0

let set_completed t slot =
  let c = chunk t slot and off = offset slot in
  let f = flags c off in
  if f land (recorded lor completed_bit) = recorded then begin
    c.pending <- c.pending - 1;
    if c.pending = 0 && slot lsr chunk_bits < t.used - 1 then release_stamps t c
  end;
  Bytes.set c.flags off (Char.unsafe_chr (f lor completed_bit))

let counted t slot = flags (chunk t slot) (offset slot) land counted_bit <> 0
let set_counted t slot = set_flag t slot counted_bit
