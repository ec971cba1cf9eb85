type queue = [ `Cpu | `Nic_out | `Nic_in ]

(* Per-queue state lives in flat arrays indexed by [index]: float arrays
   hold their elements unboxed, so admitting a job writes no boxed float
   into the record. *)
type t = {
  bandwidth : float;
  mutable speed : float;
  free : float array; (* absolute time each queue drains *)
  used : float array; (* cumulative service seconds *)
  depth : int array;
  ops : int array;
  peak : int array;
  mutable on_service :
    (queue:queue -> start:float -> duration:float -> unit) option;
}

let index = function `Cpu -> 0 | `Nic_out -> 1 | `Nic_in -> 2

let create ~bandwidth =
  if bandwidth <= 0.0 then invalid_arg "Machine.create: bandwidth must be positive";
  {
    bandwidth;
    speed = 1.0;
    free = Array.make 3 0.0;
    used = Array.make 3 0.0;
    depth = Array.make 3 0;
    ops = Array.make 3 0;
    peak = Array.make 3 0;
    on_service = None;
  }

let wire_time t ~bytes = float_of_int bytes /. t.bandwidth

let set_speed t s =
  if s <= 0.0 then invalid_arg "Machine.set_speed: speed must be positive";
  t.speed <- s

let set_service_hook t hook = t.on_service <- hook

let admit t queue ~now ~duration =
  if duration < 0.0 then invalid_arg "Machine.admit: negative duration";
  let i = index queue in
  (* Dividing by a speed of exactly 1.0 is a bit-exact identity, so an
     unfaulted machine schedules precisely as before. *)
  let duration =
    match queue with `Cpu -> duration /. t.speed | `Nic_out | `Nic_in -> duration
  in
  t.used.(i) <- t.used.(i) +. duration;
  let start = Float.max now t.free.(i) in
  let finish = start +. duration in
  t.free.(i) <- finish;
  t.depth.(i) <- t.depth.(i) + 1;
  t.ops.(i) <- t.ops.(i) + 1;
  if t.depth.(i) > t.peak.(i) then t.peak.(i) <- t.depth.(i);
  (match t.on_service with
  | Some f -> f ~queue ~start ~duration
  | None -> ());
  finish

let release t queue =
  let i = index queue in
  t.depth.(i) <- t.depth.(i) - 1

let busy_until t queue = t.free.(index queue)
let busy_seconds t queue = t.used.(index queue)
let queue_depth t queue = t.depth.(index queue)
let ops t queue = t.ops.(index queue)
let peak_depth t queue = t.peak.(index queue)
