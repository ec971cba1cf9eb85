(* Open-loop load for the wall-clock plane: a seeded Poisson arrival plan,
   the generator that submits it on time, and the commit observer.

   Latency is measured from each transaction's *due* time, not from the
   moment the generator got around to submitting it, so a generator that
   falls behind (e.g. starved of the runtime lock) shows up as latency and
   as lateness instead of silently lowering the offered load.

   The observer keeps one FIFO per target replica. A replica's mempool
   batches in arrival order, so commits arrive roughly in queue order and
   each poll only walks the committed prefix of every queue: its cost is
   O(commits + replicas) per poll, never O(outstanding). *)

open Bamboo_types
module Stats = Bamboo_util.Stats

type plan = { due : float array; target : int array }
(** Arrival offsets in seconds after the window opens, ascending, and the
    replica each arrival is sent to. *)

let plan ~seed ~rate ~duration ~replicas =
  if rate <= 0.0 then { due = [||]; target = [||] }
  else
  let rng = Bamboo_util.Rng.create ~seed in
  let due = ref [] and target = ref [] in
  let t = ref (Bamboo_util.Dist.exponential rng ~rate) in
  while !t < duration do
    due := !t :: !due;
    target := Bamboo_util.Rng.int rng replicas :: !target;
    t := !t +. Bamboo_util.Dist.exponential rng ~rate
  done;
  { due = Array.of_list (List.rev !due); target = Array.of_list (List.rev !target) }

(* ------------------------------------------------------------------ *)
(* Observer *)

type entry = { id : Tx.id; due_at : float }

type observer = {
  mutex : Mutex.t;
  queues : entry Queue.t array;  (* per target replica, submission order *)
  limit : float;  (* seconds from due time; beyond it a tx has failed *)
  latency : Stats.t;  (* seconds, due -> observed commit *)
  gaps : Stats.t;  (* seconds between consecutive polls *)
  mutable window_end : float;  (* commits seen up to here are in the window *)
  mutable in_window : int;  (* commits observed inside the timed window *)
  mutable ok : int;  (* committed within the limit *)
  mutable late : int;  (* committed, but after the limit *)
  mutable lost : int;  (* not committed when the limit passed *)
  mutable last_poll : float;
  mutable last_commit_seen : float;
}

let observer ~replicas ~limit =
  {
    mutex = Mutex.create ();
    queues = Array.init replicas (fun _ -> Queue.create ());
    limit;
    latency = Stats.create ();
    gaps = Stats.create ();
    window_end = Float.infinity;
    in_window = 0;
    ok = 0;
    late = 0;
    lost = 0;
    last_poll = Float.nan;
    last_commit_seen = Float.nan;
  }

let push o ~replica id ~due_at =
  Mutex.lock o.mutex;
  Queue.add { id; due_at } o.queues.(replica);
  Mutex.unlock o.mutex

let peek o q =
  Mutex.lock o.mutex;
  let e = Queue.peek_opt q in
  Mutex.unlock o.mutex;
  e

let drop o q =
  Mutex.lock o.mutex;
  ignore (Queue.pop q : entry);
  Mutex.unlock o.mutex

(* One pass over every queue's head. Only the observer pops, so a head
   read under the lock stays the head until this pass drops it. *)
let poll o ~now ~committed =
  if not (Float.is_nan o.last_poll) then Stats.add o.gaps (now -. o.last_poll);
  o.last_poll <- now;
  Array.iter
    (fun q ->
      let rec walk () =
        match peek o q with
        | None -> ()
        | Some e ->
            let age = now -. e.due_at in
            if committed e.id then begin
              drop o q;
              Stats.add o.latency age;
              if age > o.limit then o.late <- o.late + 1 else o.ok <- o.ok + 1;
              if now <= o.window_end then o.in_window <- o.in_window + 1;
              o.last_commit_seen <- now;
              walk ()
            end
            else if age > o.limit then begin
              drop o q;
              o.lost <- o.lost + 1;
              walk ()
            end
        in
      walk ())
    o.queues

let outstanding o =
  Mutex.lock o.mutex;
  let n = Array.fold_left (fun acc q -> acc + Queue.length q) 0 o.queues in
  Mutex.unlock o.mutex;
  n

(* Everything still queued at the end never committed: failed. *)
let finish o =
  Array.iter
    (fun q ->
      let rec go () =
        match peek o q with
        | None -> ()
        | Some _ ->
            drop o q;
            o.lost <- o.lost + 1;
            go ()
      in
      go ())
    o.queues

let failed o = o.late + o.lost

(* ------------------------------------------------------------------ *)
(* Generator *)

type gen_stats = {
  lateness : Stats.t;  (* seconds, submission time - due time, per tx *)
  submit_s : Stats.t;  (* seconds per submit call *)
  mutable rejected : int;
  mutable last_submit : float;  (* absolute time of the final submission *)
}

let gen_stats () =
  {
    lateness = Stats.create ();
    submit_s = Stats.create ();
    rejected = 0;
    last_submit = Float.nan;
  }

(* Failed txs of a pass: rejected at submission, committed late, or lost. *)
let failed_total obs stats = failed obs + stats.rejected

(* [drive] submits [plan] on time against [clock]: it sleeps until the
   next due arrival, then submits everything due by now in one pass,
   grouped per target replica in plan order. [make i] builds arrival [i]'s
   transaction; [submit ~replica txs] returns how many were admitted, and
   a full mempool rejects the tail of a submission, so those are the first
   ones. Only admitted txs are registered with the observer: a rejected tx
   never commits and would hold up every later one at the head of its
   queue. Registering after the submission is safe because [poll] asks
   the runtime's persistent committed set. *)
let drive ~clock ~sleep ~t0 ~plan ~make ~submit ~obs ~stats =
  let n = Array.length plan.due in
  let replicas = Array.length obs.queues in
  let groups = Array.make replicas [] in
  let i = ref 0 in
  while !i < n do
    let now = clock () in
    let next_due = t0 +. plan.due.(!i) in
    if next_due > now then sleep (Float.min (next_due -. now) 0.002)
    else begin
      let j = ref !i in
      while !j < n && t0 +. plan.due.(!j) <= now do
        let due_at = t0 +. plan.due.(!j) in
        let r = plan.target.(!j) in
        groups.(r) <- (make !j, due_at) :: groups.(r);
        Stats.add stats.lateness (now -. due_at);
        incr j
      done;
      Array.iteri
        (fun r group ->
          match group with
          | [] -> ()
          | group ->
              let group = List.rev group in
              groups.(r) <- [];
              let s0 = clock () in
              let admitted = submit ~replica:r (List.map fst group) in
              let s1 = clock () in
              Stats.add stats.submit_s (s1 -. s0);
              List.iteri
                (fun k (tx, due_at) ->
                  if k < admitted then push obs ~replica:r tx.Tx.id ~due_at)
                group;
              stats.rejected <- stats.rejected + (List.length group - admitted);
              stats.last_submit <- s1)
        groups;
      i := !j
    end
  done
