(* Wall-clock reads and real sleeps implement receive timeouts for the
   threaded transports; determinism claims only cover the simulator path. *)
[@@@lint.allow "no-ambient-nondeterminism"]

type doorbell = {
  mutex : Mutex.t;
  cond : Condition.t;
  parked : bool Atomic.t;
  due : float Atomic.t; (* deadline of the latest [park] *)
}

let doorbell () =
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    parked = Atomic.make false;
    due = Atomic.make infinity;
  }

let ring db =
  (* Producer fast path: one atomic load. The parked flag is set under the
     doorbell mutex before the consumer re-checks readiness, so with SC
     atomics either this load sees [parked] (and we broadcast under the
     mutex, after the consumer committed to waiting) or the consumer's
     readiness check sees our already-published data — never a lost
     wakeup. *)
  if Atomic.get db.parked then begin
    Mutex.lock db.mutex;
    Condition.broadcast db.cond;
    Mutex.unlock db.mutex
  end

(* [park] publishes [due] before [parked] and this reads them in the
   other order, so a tick that finds the consumer parked compares [now]
   with that park's deadline (or a later park's). *)
let expire db ~now =
  if Atomic.get db.parked && now >= Atomic.get db.due then ring db

let park db ~deadline ~ready =
  Mutex.lock db.mutex;
  Atomic.set db.due deadline;
  Atomic.set db.parked true;
  let rec loop () =
    if ready () then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Condition.wait db.cond db.mutex;
      loop ()
    end
  in
  let r = loop () in
  Atomic.set db.parked false;
  Mutex.unlock db.mutex;
  r

type ticker = Thread.t

let start_ticker ~period_s ~live ~wake =
  Thread.create
    (fun () ->
      while live () do
        Thread.delay period_s;
        wake ()
      done)
    ()
