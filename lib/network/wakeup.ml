(* Wall-clock reads and real sleeps implement receive timeouts for the
   threaded transports; determinism claims only cover the simulator path. *)
[@@@lint.allow "no-ambient-nondeterminism"]

(* The deadline thread's tick: a park deadline holds within about one. *)
let period_s = 0.001

type doorbell = {
  mutex : Mutex.t;
  cond : Condition.t;
  parked : int Atomic.t; (* threads inside [park] *)
  mutable due : float; [@guarded_by "mutex"]
      (* earliest deadline registered since the last wakeup *)
  mutable enlisted : bool; [@guarded_by "mutex"]
      (* on the deadline thread's list, or pending to join it *)
}

let doorbell () =
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    parked = Atomic.make 0;
    due = infinity;
    enlisted = false;
  }

(* Every woken parker that waits again registers its deadline again, so
   a wakeup clears [due]. Called with [db.mutex] held. *)
let wake_all db =
  db.due <- infinity;
  Condition.broadcast db.cond

let ring db =
  (* Producer fast path: one atomic load. A parker counts itself in
     [parked] under the doorbell mutex before it checks readiness, so
     with SC atomics either this load sees it (and we broadcast under the
     mutex, after it committed to waiting) or its readiness check sees
     our already-published data — never a lost wakeup. *)
  if Atomic.get db.parked > 0 then begin
    Mutex.lock db.mutex;
    wake_all db;
    Mutex.unlock db.mutex
  end

(* --- the deadline thread ---

   Invariant: a doorbell whose [due] is finite is enlisted. [due] and
   [enlisted] change only under the doorbell's mutex. A parker that
   lowers [due] enlists the doorbell if it is not enlisted, and the
   thread de-lists a doorbell only when it finds [due = infinity] under
   that mutex. So the mutex orders every de-list against every
   registration: either the de-list comes first and the parker finds
   [enlisted = false] and enlists again, or the registration comes first
   and the thread finds a finite [due] and keeps the doorbell. A parked
   deadline is never left without a thread to honour it.

   Enlisting and the thread's exit are ordered by [deadlines.lock]: the
   thread clears [running] only in the section where it finds no
   doorbell listed or pending, so an enlist either lands before that
   section (and the thread picks it up) or after it (and finds [running]
   false, so it starts a new thread). The lock order is a doorbell's
   mutex before [deadlines.lock]; the thread takes a doorbell's mutex
   only while holding no other lock. *)

type deadlines = {
  lock : Mutex.t;
  mutable pending : doorbell list; [@guarded_by "lock"]
  mutable running : bool; [@guarded_by "lock"]
}

let deadlines = { lock = Mutex.create (); pending = []; running = false }

(* One visit from the deadline thread; returns whether [db] stays
   enlisted. *)
let visit db ~now =
  Mutex.lock db.mutex;
  if now >= db.due then wake_all db
  else if db.due = infinity then db.enlisted <- false;
  let keep = db.enlisted in
  Mutex.unlock db.mutex;
  keep

let rec run_deadlines listed =
  Thread.delay period_s;
  let now = Unix.gettimeofday () in
  let listed = List.filter (fun db -> visit db ~now) listed in
  Mutex.lock deadlines.lock;
  let listed = List.rev_append deadlines.pending listed in
  deadlines.pending <- [];
  deadlines.running <- listed <> [];
  Mutex.unlock deadlines.lock;
  if listed <> [] then run_deadlines listed

(* Called with [db.mutex] held. *)
let enlist db =
  db.enlisted <- true;
  Mutex.lock deadlines.lock;
  deadlines.pending <- db :: deadlines.pending;
  let start = not deadlines.running in
  deadlines.running <- true;
  Mutex.unlock deadlines.lock;
  if start then ignore (Thread.create run_deadlines [] : Thread.t)

let park db ~deadline ~ready =
  Mutex.lock db.mutex;
  Atomic.incr db.parked;
  let rec loop () =
    if ready () then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      if deadline < db.due then begin
        db.due <- deadline;
        if not db.enlisted then enlist db
      end;
      Condition.wait db.cond db.mutex;
      loop ()
    end
  in
  let r = loop () in
  Atomic.decr db.parked;
  Mutex.unlock db.mutex;
  r
