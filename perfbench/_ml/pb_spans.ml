(* In-memory spans at the benchmark's own call boundaries (a sweep, a
   cell, a micro-benchmark, a cluster pass). Nothing inside the library
   is instrumented: a span only brackets a call the benchmark makes.
   Spans are buffered under a mutex (cells run on several domains) and
   written once, at the end of the run. *)

type span = { id : int; parent : int; name : string; start : float; stop : float }

type t = {
  enabled : bool;
  epoch : float;
  mutex : Mutex.t;
  mutable next_id : int;
  mutable spans : span list;
}

let create ~enabled =
  {
    enabled;
    epoch = Unix.gettimeofday ();
    mutex = Mutex.create ();
    next_id = 1;
    spans = [];
  }

(* [with_span t ~parent name f] runs [f id] and records its span; [id] is
   what nested calls pass as their [parent] (0 = top level). *)
let with_span t ?(parent = 0) name f =
  if not t.enabled then f 0
  else begin
    Mutex.lock t.mutex;
    let id = t.next_id in
    t.next_id <- id + 1;
    Mutex.unlock t.mutex;
    let start = Unix.gettimeofday () in
    let record () =
      let stop = Unix.gettimeofday () in
      Mutex.lock t.mutex;
      t.spans <- { id; parent; name; start; stop } :: t.spans;
      Mutex.unlock t.mutex
    in
    Fun.protect ~finally:record (fun () -> f id)
  end

let count t =
  Mutex.lock t.mutex;
  let n = List.length t.spans in
  Mutex.unlock t.mutex;
  n

let to_json t =
  let module J = Bamboo_util.Json in
  Mutex.lock t.mutex;
  let spans = List.rev t.spans in
  Mutex.unlock t.mutex;
  J.List
    (List.map
       (fun s ->
         J.Obj
           [
             ("id", J.Int s.id);
             ("parent", J.Int s.parent);
             ("name", J.String s.name);
             ("start", J.Float (s.start -. t.epoch));
             ("end", J.Float (s.stop -. t.epoch));
           ])
       spans)

let write t path =
  let oc = open_out path in
  output_string oc (Bamboo_util.Json.to_string (to_json t));
  output_char oc '\n';
  close_out oc
