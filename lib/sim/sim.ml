(* The event queue is the hottest structure in the simulator: every
   message hop, CPU charge and timer is a push/pop pair. Instead of the
   generic polymorphic [Bamboo_util.Heap] (closure-based comparator,
   polymorphic [compare] on boxed floats, one heap-allocated entry per
   event), the queue is a monomorphic 4-ary min-heap in
   structure-of-arrays layout: timestamps live in a flat unboxed [float
   array], insertion sequence numbers (the FIFO tie-break that keeps
   replay deterministic) in an [int array], and callbacks in a separate
   array whose vacated slots are reset to a shared no-op so fired
   closures are collectable immediately. Comparisons are primitive float
   and int operations — no [cmp] closure, no polymorphic dispatch.

   Sifts move a hole rather than swapping: the moving entry stays in
   locals, each entry on the path shifts one level into the hole, and
   the moving entry is written once where the hole stops. Four children
   per node halve a binary heap's depth: a pop moves through half as many
   levels at four comparisons a level instead of two, and a node's
   children lie within one or two cache lines of each array. *)
module Eq = struct
  type t = {
    mutable at : float array; (* flat, unboxed *)
    mutable seq : int array;
    mutable fn : (unit -> unit) array;
    mutable len : int;
    mutable next_seq : int;
  }

  let nop () = ()

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

  (* Removes the root and returns its callback; callers must have checked
     [length q > 0]. The last entry fills the root's hole. *)
  let take q =
    let fn = q.fn.(0) in
    let last = q.len - 1 in
    q.len <- last;
    if last > 0 then sift_down q 0 last;
    q.fn.(last) <- nop;
    fn

  (* Removes the entry at heap index [i] (controlled scheduling picks
     events other than the root) and returns its callback. The last entry
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

type delivery = { d_src : int; d_dst : int; d_note : string }

(* Tags live in a side table keyed by heap sequence number rather than a
   fourth heap array: the uncontrolled hot path never touches them, so
   the disabled simulator is byte-for-byte the pre-hook one. *)
type ctl = {
  cfg : controller;
  tags : (int, delivery) Hashtbl.t;
  mutable decisions : int;
}

type t = {
  mutable clock : float;
  events : Eq.t;
  mutable fired : int;
  mutable pushed : int;
  mutable peak : int; (* high-water mark of the event heap *)
  mutable ctl : ctl option;
}

let create () =
  {
    clock = 0.0;
    events = Eq.create ();
    fired = 0;
    pushed = 0;
    peak = 0;
    ctl = None;
  }

let now t = t.clock

let schedule_at t ~at fn =
  let at = Float.max at t.clock in
  Eq.push t.events ~at fn;
  t.pushed <- t.pushed + 1;
  let len = Eq.length t.events in
  if len > t.peak then t.peak <- len

let schedule t ~delay fn = schedule_at t ~at:(t.clock +. Float.max 0.0 delay) fn

let set_controller t cfg =
  t.ctl <-
    (match cfg with
    | None -> None
    | Some cfg -> Some { cfg; tags = Hashtbl.create 64; decisions = 0 })

let decisions t = match t.ctl with None -> 0 | Some c -> c.decisions

let schedule_delivery t ~delay ~src ~dst ~note fn =
  match t.ctl with
  | None -> schedule t ~delay fn
  | Some c ->
      let seq = t.events.Eq.next_seq in
      schedule t ~delay fn;
      Hashtbl.replace c.tags seq { d_src = src; d_dst = dst; d_note = note }

let pending_deliveries t =
  match t.ctl with
  | None -> []
  | Some c ->
      let q = t.events in
      let acc = ref [] in
      for i = 0 to Eq.length q - 1 do
        match Hashtbl.find_opt c.tags q.Eq.seq.(i) with
        | Some d -> acc := (q.Eq.at.(i), q.Eq.seq.(i), d) :: !acc
        | None -> ()
      done;
      List.map
        (fun (at, _, d) -> (at, d.d_src, d.d_dst, d.d_note))
        (List.sort
           (fun (a1, s1, _) (a2, s2, _) ->
             match Float.compare a1 a2 with
             | 0 -> Int.compare s1 s2
             | c -> c)
           !acc)

let fire t ~at fn =
  t.clock <- Float.max t.clock at;
  t.fired <- t.fired + 1;
  fn ()

(* One step of the controlled loop. A decision point forms when the
   minimum event is a tagged delivery and at least one other tagged
   delivery falls inside [t_min, t_min + window]: the candidate set
   (sorted by (timestamp, sequence), so its order is the uncontrolled
   firing order) goes to the strategy, and the chosen delivery fires at
   the window base [t_min] — picking a later candidate models that
   message arriving early, so permutations of same-instant candidates
   reconverge to identical states. Untagged events (timers, machine
   completions, workload ticks) always fire in plain heap order. *)
let controlled_step t ctl horizon =
  let q = t.events in
  if Eq.length q = 0 || Eq.min_at q > horizon then false
  else begin
    let t0 = Eq.min_at q in
    if not (Hashtbl.mem ctl.tags q.Eq.seq.(0)) then begin
      let fn = Eq.take q in
      fire t ~at:t0 fn;
      true
    end
    else begin
      let limit = t0 +. Float.max 0.0 ctl.cfg.window in
      let cands = ref [] in
      for i = 0 to Eq.length q - 1 do
        if q.Eq.at.(i) <= limit then
          match Hashtbl.find_opt ctl.tags q.Eq.seq.(i) with
          | Some d -> cands := (q.Eq.at.(i), q.Eq.seq.(i), i, d) :: !cands
          | None -> ()
      done;
      let cands =
        List.sort
          (fun (a1, s1, _, _) (a2, s2, _, _) ->
            match Float.compare a1 a2 with
            | 0 -> Int.compare s1 s2
            | c -> c)
          !cands
      in
      match cands with
      | [] -> assert false (* the root itself is tagged *)
      | [ (_, s, _, _) ] ->
          (* Only one deliverable message in the window: no choice to
             make. It is necessarily the root. *)
          Hashtbl.remove ctl.tags s;
          let fn = Eq.take q in
          fire t ~at:t0 fn;
          true
      | _ :: _ :: _ ->
          let arr =
            Array.of_list
              (List.map
                 (fun (at, _, _, d) ->
                   {
                     c_at = at;
                     c_src = d.d_src;
                     c_dst = d.d_dst;
                     c_note = d.d_note;
                   })
                 cands)
          in
          ctl.decisions <- ctl.decisions + 1;
          let k = ctl.cfg.choose ~now:t.clock arr in
          if k < 0 || k >= Array.length arr then
            invalid_arg "Sim: controller chose an out-of-range candidate";
          let _, s, i, _ = List.nth cands k in
          Hashtbl.remove ctl.tags s;
          let fn = Eq.remove q i in
          fire t ~at:t0 fn;
          true
    end
  end

let run_until t horizon =
  (match t.ctl with
  | None ->
      let continue = ref true in
      while !continue do
        if Eq.length t.events > 0 && Eq.min_at t.events <= horizon then begin
          let at = Eq.min_at t.events in
          let fn = Eq.take t.events in
          t.clock <- Float.max t.clock at;
          t.fired <- t.fired + 1;
          fn ()
        end
        else continue := false
      done
  | Some ctl -> while controlled_step t ctl horizon do () done);
  t.clock <- Float.max t.clock horizon

let peek_at t = if Eq.length t.events = 0 then None else Some (Eq.min_at t.events)

let drain_window t ~width =
  if width < 0.0 then invalid_arg "Sim.drain_window: width must be >= 0";
  match peek_at t with
  | None -> 0
  | Some t0 ->
      let limit = t0 +. width in
      let fired = ref 0 in
      let continue = ref true in
      while !continue do
        if Eq.length t.events > 0 && Eq.min_at t.events <= limit then begin
          let at = Eq.min_at t.events in
          (match t.ctl with
          | Some c -> Hashtbl.remove c.tags t.events.Eq.seq.(0)
          | None -> ());
          let fn = Eq.take t.events in
          fire t ~at fn;
          incr fired
        end
        else continue := false
      done;
      !fired

let run_to_completion ?(max_events = 100_000_000) t =
  let count = ref 0 in
  while Eq.length t.events > 0 do
    incr count;
    if !count > max_events then
      failwith "Sim.run_to_completion: event budget exhausted";
    let at = Eq.min_at t.events in
    (match t.ctl with
    | Some c -> Hashtbl.remove c.tags t.events.Eq.seq.(0)
    | None -> ());
    let fn = Eq.take t.events in
    t.clock <- Float.max t.clock at;
    t.fired <- t.fired + 1;
    fn ()
  done

let pending t = Eq.length t.events
let fired t = t.fired
let pushed t = t.pushed
let peak_depth t = t.peak
