(* The event queue is the hottest structure in the simulator: every
   message hop, CPU charge and timer is a push/pop pair. Instead of the
   generic polymorphic [Bamboo_util.Heap] (closure-based comparator,
   polymorphic [compare] on boxed floats, one heap-allocated entry per
   event), the queue is a monomorphic 4-ary min-heap in
   structure-of-arrays layout: timestamps live in a flat unboxed [float
   array], insertion sequence numbers (the FIFO tie-break that keeps
   replay deterministic) in an [int array], and events in a separate
   array whose vacated slots are reset to a shared no-op so fired
   events are collectable immediately. [event] is an extensible variant,
   so that array is a plain pointer array whose reads and writes need no
   float-array check, unlike a polymorphic payload's. Comparisons are
   primitive float and int operations — no [cmp] closure, no polymorphic
   dispatch.

   Sifts move a hole rather than swapping: the moving entry stays in
   locals, each entry on the path shifts one level into the hole, and
   the moving entry is written once where the hole stops. Four children
   per node halve a binary heap's depth: a pop moves through half as many
   levels at four comparisons a level instead of two, and a node's
   children lie within one or two cache lines of each array. *)
type event = ..
type event += Call of (unit -> unit)

module Eq = struct
  type t = {
    mutable at : float array; (* flat, unboxed *)
    mutable seq : int array;
    mutable fn : event array;
    mutable len : int;
    mutable next_seq : int;
  }

  let nop = Call (fun () -> ())

  let initial = 256

  let create () =
    {
      at = Array.make initial 0.0;
      seq = Array.make initial 0;
      fn = Array.make initial nop;
      len = 0;
      next_seq = 0;
    }

  let length q = q.len

  (* Entries are ordered by strict (key, seq) lexicographic order. Keys
     are never NaN: [Config.validate] rejects non-finite delays and
     timeouts, and the scheduler clamps keys against the monotone clock.
     Sequence numbers are unique, so the order is total and pop order
     does not depend on the heap's shape. *)

  (* Moves the entry at index [src] into the hole at [hole], sifting the
     hole towards the root. [src] is [hole] itself or the slot at [len]
     just vacated, so it is read before anything on the path is
     overwritten. *)
  let sift_up q hole src =
    let at = q.at and seq = q.seq and fn = q.fn in
    let xa = Array.unsafe_get at src
    and xs = Array.unsafe_get seq src
    and xf = Array.unsafe_get fn src in
    let i = ref hole and moving = ref true in
    while !moving && !i > 0 do
      let p = (!i - 1) lsr 2 in
      let pa = Array.unsafe_get at p in
      if xa < pa || (xa = pa && xs < Array.unsafe_get seq p) then begin
        Array.unsafe_set at !i pa;
        Array.unsafe_set seq !i (Array.unsafe_get seq p);
        Array.unsafe_set fn !i (Array.unsafe_get fn p);
        i := p
      end
      else moving := false
    done;
    Array.unsafe_set at !i xa;
    Array.unsafe_set seq !i xs;
    Array.unsafe_set fn !i xf

  (* Moves the entry at index [src] into the hole at [hole], sifting the
     hole towards the leaves: the smallest of the hole's children moves
     up while it precedes the entry. Same [src] contract as [sift_up]. *)
  let sift_down q hole src =
    let at = q.at and seq = q.seq and fn = q.fn and len = q.len in
    let xa = Array.unsafe_get at src
    and xs = Array.unsafe_get seq src
    and xf = Array.unsafe_get fn src in
    let i = ref hole and moving = ref true in
    while !moving do
      let c = (4 * !i) + 1 in
      if c >= len then moving := false
      else begin
        let m = ref c in
        for k = c + 1 to Int.min (c + 3) (len - 1) do
          let ka = Array.unsafe_get at k and ma = Array.unsafe_get at !m in
          if
            ka < ma
            || (ka = ma && Array.unsafe_get seq k < Array.unsafe_get seq !m)
          then m := k
        done;
        let m = !m in
        let ma = Array.unsafe_get at m in
        if ma < xa || (ma = xa && Array.unsafe_get seq m < xs) then begin
          Array.unsafe_set at !i ma;
          Array.unsafe_set seq !i (Array.unsafe_get seq m);
          Array.unsafe_set fn !i (Array.unsafe_get fn m);
          i := m
        end
        else moving := false
      end
    done;
    Array.unsafe_set at !i xa;
    Array.unsafe_set seq !i xs;
    Array.unsafe_set fn !i xf

  let grow q =
    let cap = Array.length q.at in
    let at = Array.make (2 * cap) 0.0 in
    Array.blit q.at 0 at 0 cap;
    q.at <- at;
    let seq = Array.make (2 * cap) 0 in
    Array.blit q.seq 0 seq 0 cap;
    q.seq <- seq;
    let fn = Array.make (2 * cap) nop in
    Array.blit q.fn 0 fn 0 cap;
    q.fn <- fn

  (* The hole starts at the new leaf. A new entry's sequence number is
     the largest in the queue, so it precedes a parent only on a strictly
     smaller key. The sift stays inline so [at] is never boxed. *)
  let push q ~at:xa xf =
    if q.len = Array.length q.at then grow q;
    let at = q.at and seq = q.seq and fn = q.fn in
    let xs = q.next_seq in
    q.next_seq <- xs + 1;
    let i = ref q.len in
    q.len <- q.len + 1;
    let moving = ref true in
    while !moving && !i > 0 do
      let p = (!i - 1) lsr 2 in
      let pa = Array.unsafe_get at p in
      if xa < pa then begin
        Array.unsafe_set at !i pa;
        Array.unsafe_set seq !i (Array.unsafe_get seq p);
        Array.unsafe_set fn !i (Array.unsafe_get fn p);
        i := p
      end
      else moving := false
    done;
    Array.unsafe_set at !i xa;
    Array.unsafe_set seq !i xs;
    Array.unsafe_set fn !i xf

  (* Only meaningful when [length q > 0]. *)
  let min_at q = q.at.(0)

  (* Removes the root and returns its event; callers must have checked
     [length q > 0]. The last entry fills the root's hole. *)
  let take q =
    let fn = q.fn.(0) in
    let last = q.len - 1 in
    q.len <- last;
    if last > 0 then sift_down q 0 last;
    q.fn.(last) <- nop;
    fn

  (* Removes the entry at heap index [i] (controlled scheduling picks
     events other than the root) and returns its event. The last entry
     fills the hole, moving up if it precedes the hole's parent and down
     otherwise. *)
  let remove q i =
    let fn = q.fn.(i) in
    let last = q.len - 1 in
    q.len <- last;
    if i < last then begin
      let precedes_parent =
        i > 0
        &&
        let p = (i - 1) lsr 2 in
        let la = q.at.(last) and pa = q.at.(p) in
        la < pa || (la = pa && q.seq.(last) < q.seq.(p))
      in
      if precedes_parent then sift_up q i last else sift_down q i last
    end;
    q.fn.(last) <- nop;
    fn
end

(* --- controlled scheduling --- *)

type candidate = { c_at : float; c_src : int; c_dst : int; c_note : string }

type controller = {
  window : float;
  choose : now:float -> candidate array -> int;
}

type t = {
  mutable clock : float;
  events : Eq.t;
  mutable fired : int;
  mutable pushed : int;
  mutable peak : int; (* high-water mark of the event heap *)
  mutable fire_event : event -> unit;
  mutable delivery : event -> (int * int * string) option;
  mutable controller : controller option;
  mutable decisions : int;
}

let create () =
  {
    clock = 0.0;
    events = Eq.create ();
    fired = 0;
    pushed = 0;
    peak = 0;
    fire_event = (fun _ -> invalid_arg "Sim: no handler for a typed event");
    delivery = (fun _ -> None);
    controller = None;
    decisions = 0;
  }

let set_handler t ~fire ~delivery =
  t.fire_event <- fire;
  t.delivery <- delivery

let now t = t.clock

let post_at t ~at ev =
  let at = Float.max at t.clock in
  Eq.push t.events ~at ev;
  t.pushed <- t.pushed + 1;
  let len = Eq.length t.events in
  if len > t.peak then t.peak <- len

let post t ~delay ev = post_at t ~at:(t.clock +. Float.max 0.0 delay) ev
let schedule_at t ~at fn = post_at t ~at (Call fn)
let schedule t ~delay fn = post t ~delay (Call fn)

let set_controller t cfg =
  t.controller <- cfg;
  t.decisions <- 0

let decisions t = t.decisions

let fold_pending t f init =
  let q = t.events in
  let acc = ref init in
  for i = 0 to Eq.length q - 1 do
    acc := f !acc q.Eq.fn.(i)
  done;
  !acc

let by_time_then_seq (a1, s1, _) (a2, s2, _) =
  match Float.compare a1 a2 with 0 -> Int.compare s1 s2 | c -> c

(* The pending deliveries timestamped at most [limit], as [(at, seq,
   (heap index, identity))], sorted by (timestamp, sequence): the
   uncontrolled firing order. *)
let deliveries_until t limit =
  let q = t.events in
  let acc = ref [] in
  for i = 0 to Eq.length q - 1 do
    let at = q.Eq.at.(i) in
    if at <= limit then
      match t.delivery q.Eq.fn.(i) with
      | Some d -> acc := (at, q.Eq.seq.(i), (i, d)) :: !acc
      | None -> ()
  done;
  List.sort by_time_then_seq !acc

let pending_deliveries t =
  List.map
    (fun (at, _, (_, (src, dst, note))) -> (at, src, dst, note))
    (deliveries_until t infinity)

let fire t ~at ev =
  t.clock <- Float.max t.clock at;
  t.fired <- t.fired + 1;
  match ev with Call f -> f () | ev -> t.fire_event ev

(* One step of the controlled loop. A decision point forms when the
   minimum event is a delivery and at least one other delivery falls
   inside [t_min, t_min + window]: the candidate set (sorted by
   (timestamp, sequence), so its order is the uncontrolled firing order)
   goes to the strategy, and the chosen delivery fires at the window base
   [t_min] — picking a later candidate models that message arriving early,
   so permutations of same-instant candidates reconverge to identical
   states. Other events (timers, machine completions, workload ticks)
   always fire in plain heap order. *)
let controlled_step t ctl horizon =
  let q = t.events in
  if Eq.length q = 0 || Eq.min_at q > horizon then false
  else begin
    let t0 = Eq.min_at q in
    (match t.delivery q.Eq.fn.(0) with
    | None -> fire t ~at:t0 (Eq.take q)
    | Some _ -> (
        match deliveries_until t (t0 +. Float.max 0.0 ctl.window) with
        | [] | [ _ ] ->
            (* Only one deliverable message in the window: no choice to
               make. It is necessarily the root. *)
            fire t ~at:t0 (Eq.take q)
        | cands ->
            let arr =
              Array.of_list
                (List.map
                   (fun (at, _, (_, (src, dst, note))) ->
                     { c_at = at; c_src = src; c_dst = dst; c_note = note })
                   cands)
            in
            t.decisions <- t.decisions + 1;
            let k = ctl.choose ~now:t.clock arr in
            if k < 0 || k >= Array.length arr then
              invalid_arg "Sim: controller chose an out-of-range candidate";
            let _, _, (i, _) = List.nth cands k in
            fire t ~at:t0 (Eq.remove q i)));
    true
  end

let run_until t horizon =
  (match t.controller with
  | None ->
      let continue = ref true in
      while !continue do
        if Eq.length t.events > 0 && Eq.min_at t.events <= horizon then begin
          (* [fire], inlined: the timestamp stays unboxed. *)
          let at = Eq.min_at t.events in
          let ev = Eq.take t.events in
          t.clock <- Float.max t.clock at;
          t.fired <- t.fired + 1;
          match ev with Call f -> f () | ev -> t.fire_event ev
        end
        else continue := false
      done
  | Some ctl -> while controlled_step t ctl horizon do () done);
  t.clock <- Float.max t.clock horizon

let run_to_completion ?(max_events = 100_000_000) t =
  let count = ref 0 in
  while Eq.length t.events > 0 do
    incr count;
    if !count > max_events then
      failwith "Sim.run_to_completion: event budget exhausted";
    let at = Eq.min_at t.events in
    fire t ~at (Eq.take t.events)
  done

let pending t = Eq.length t.events
let fired t = t.fired
let pushed t = t.pushed
let peak_depth t = t.peak
