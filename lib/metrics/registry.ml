(* Aggregate metrics registry: monotonic counters, gauges and log-bucketed
   histograms. Each registered metric owns one cell, and every access to a
   cell (recording and reading alike) holds the registry's one mutex, so
   counts are exact under domains and systhreads. Every writer records a
   handful of samples per run or per experiment cell, so the lock is never
   contended. Recording is allocation-free: a disabled registry costs one
   load and one branch per record, and an enabled one a lock, a few stores
   and an unlock.

   Metrics are observe-only by construction: nothing in this module feeds
   back into simulation state, and the registry is a per-run value (like
   Trace.t), never ambient global state. *)

module Tbl = Bamboo_util.Tbl

(* All-float record: gets the flat float-array representation, so mutating a
   field stores an unboxed float. A mixed int/float record would box on
   every [Gauge.set]. The sample count is therefore carried as a float. *)
type gcell = {
  mutable g_last : float; [@guarded_by "lock"]
  mutable g_min : float; [@guarded_by "lock"]
  mutable g_max : float; [@guarded_by "lock"]
  mutable g_sum : float; [@guarded_by "lock"]
  mutable g_count : float; [@guarded_by "lock"]
}

type ccell = { mutable c_value : int [@guarded_by "lock"] }

type hcell = {
  mutable h_sum : int; [@guarded_by "lock"]
  mutable h_count : int; [@guarded_by "lock"]
  mutable h_max : int; [@guarded_by "lock"]
  h_buckets : int array; [@guarded_by "lock"]
}

type cell = C of ccell | G of gcell | H of hcell

type t = {
  enabled : bool;
  lock : Mutex.t; (* guards registration and every cell *)
  metrics : (string * string, (string * string) list * cell) Hashtbl.t;
      [@guarded_by "lock"]
      (* (name, label key) -> (canonical labels, cell) *)
}

let create ?(enabled = true) () =
  { enabled; lock = Mutex.create (); metrics = Hashtbl.create 32 }

let null = create ~enabled:false ()
let enabled t = t.enabled

(* ---------------------------------------------------------------- naming *)

let valid_name name =
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' -> true | _ -> false)
  && String.for_all
       (fun ch ->
         match ch with 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
       name

let canon_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let label_key labels =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

(* ----------------------------------------------------------- histograms *)

(* HDR-style log buckets with 16 sub-buckets per octave: values below 32 get
   one bucket each (exact), and every value >= 32 lands in a bucket whose
   width is 1/16 of its octave, bounding the relative quantile error at
   ~6%. With 63-bit ints the largest index is (61-3)*16 + 15 = 943. *)
let sub_bits = 4
let first_log = 32 (* 1 lsl (sub_bits + 1): below this, one bucket per value *)
let n_buckets = 960

(* Index of the highest set bit of [v] > 0. Stepped shifts rather than a
   loop with a [ref]: a ref cell would allocate. *)
let msb v =
  let k1 = if v lsr 32 <> 0 then 32 else 0 in
  let v1 = v lsr k1 in
  let k2 = if v1 lsr 16 <> 0 then 16 else 0 in
  let v2 = v1 lsr k2 in
  let k3 = if v2 lsr 8 <> 0 then 8 else 0 in
  let v3 = v2 lsr k3 in
  let k4 = if v3 lsr 4 <> 0 then 4 else 0 in
  let v4 = v3 lsr k4 in
  let k5 = if v4 lsr 2 <> 0 then 2 else 0 in
  let v5 = v4 lsr k5 in
  let k6 = if v5 lsr 1 <> 0 then 1 else 0 in
  k1 + k2 + k3 + k4 + k5 + k6

let bucket_index v =
  let v = if v < 0 then 0 else v in
  if v < first_log then v
  else
    let k = msb v in
    (((k - sub_bits + 1) * 16) + ((v lsr (k - sub_bits)) land 15))

let bucket_lower idx =
  if idx < first_log then idx
  else (16 + (idx land 15)) lsl ((idx lsr sub_bits) - 1)

(* -------------------------------------------------------------- handles *)

module Counter = struct
  type nonrec t = { reg : t; cell : ccell }

  let add h v =
    if h.reg.enabled then begin
      Mutex.lock h.reg.lock;
      h.cell.c_value <- h.cell.c_value + v;
      Mutex.unlock h.reg.lock
    end

  let incr h = add h 1

  let value h =
    Mutex.lock h.reg.lock;
    let v = h.cell.c_value in
    Mutex.unlock h.reg.lock;
    v
end

module Gauge = struct
  type nonrec t = { reg : t; cell : gcell }

  let set h v =
    if h.reg.enabled then begin
      Mutex.lock h.reg.lock;
      let c = h.cell in
      c.g_last <- v;
      if v < c.g_min then c.g_min <- v;
      if v > c.g_max then c.g_max <- v;
      c.g_sum <- c.g_sum +. v;
      c.g_count <- c.g_count +. 1.0;
      Mutex.unlock h.reg.lock
    end

  let samples h =
    Mutex.lock h.reg.lock;
    let n = int_of_float h.cell.g_count in
    Mutex.unlock h.reg.lock;
    n
end

module Histogram = struct
  type nonrec t = { reg : t; cell : hcell }

  let observe h v =
    if h.reg.enabled then begin
      let v = if v < 0 then 0 else v in
      let i = bucket_index v in
      Mutex.lock h.reg.lock;
      let c = h.cell in
      c.h_sum <- c.h_sum + v;
      c.h_count <- c.h_count + 1;
      if v > c.h_max then c.h_max <- v;
      let b = c.h_buckets in
      Array.unsafe_set b i (Array.unsafe_get b i + 1);
      Mutex.unlock h.reg.lock
    end

  (* Seconds -> nanoseconds, the unit every *_ns histogram records. *)
  let observe_s h secs = observe h (int_of_float (secs *. 1e9))

  let count h =
    Mutex.lock h.reg.lock;
    let n = h.cell.h_count in
    Mutex.unlock h.reg.lock;
    n
end

(* --------------------------------------------------------- registration *)

let new_counter () = C { c_value = 0 }

let new_gauge () =
  G
    {
      g_last = 0.0;
      g_min = infinity;
      g_max = neg_infinity;
      g_sum = 0.0;
      g_count = 0.0;
    }

let new_hist () =
  H { h_sum = 0; h_count = 0; h_max = 0; h_buckets = Array.make n_buckets 0 }

(* The cell registered under (name, labels), made by [fresh] on first
   registration. A disabled registry stores nothing: its handles' cells
   are never written, since every record operation checks [enabled]. *)
let register t ~fresh labels name =
  if not (valid_name name) then
    invalid_arg ("Registry: metric name must be snake_case: " ^ name);
  if not t.enabled then fresh ()
  else begin
    let labels = canon_labels labels in
    let key = (name, label_key labels) in
    Mutex.lock t.lock;
    let cell =
      match Hashtbl.find_opt t.metrics key with
      | Some (_, cell) -> cell
      | None ->
          let cell = fresh () in
          Hashtbl.add t.metrics key (labels, cell);
          cell
    in
    Mutex.unlock t.lock;
    cell
  end

let kind_mismatch name =
  invalid_arg ("Registry: " ^ name ^ " re-registered with a different kind")

let counter t ?(labels = []) name : Counter.t =
  match register t ~fresh:new_counter labels name with
  | C cell -> { Counter.reg = t; cell }
  | G _ | H _ -> kind_mismatch name

let gauge t ?(labels = []) name : Gauge.t =
  match register t ~fresh:new_gauge labels name with
  | G cell -> { Gauge.reg = t; cell }
  | C _ | H _ -> kind_mismatch name

let histogram t ?(labels = []) name : Histogram.t =
  match register t ~fresh:new_hist labels name with
  | H cell -> { Histogram.reg = t; cell }
  | C _ | G _ -> kind_mismatch name

(* --------------------------------------------------------------- reading *)

type merged =
  | M_counter of int
  | M_gauge of {
      last : float;
      min_v : float;
      max_v : float;
      sum : float;
      samples : int;
    }
  | M_hist of {
      count : int;
      sum : int;
      max_v : int;
      buckets : (int * int) list; (* (bucket lower bound, count), ascending *)
    }

(* Called with the lock held. *)
let merged = function
  | C c -> M_counter c.c_value
  | G g ->
      let empty = g.g_count = 0.0 in
      M_gauge
        {
          last = g.g_last;
          min_v = (if empty then 0.0 else g.g_min);
          max_v = (if empty then 0.0 else g.g_max);
          sum = g.g_sum;
          samples = int_of_float g.g_count;
        }
  | H h ->
      let present = ref [] in
      for i = n_buckets - 1 downto 0 do
        let n = h.h_buckets.(i) in
        if n > 0 then present := (bucket_lower i, n) :: !present
      done;
      M_hist
        { count = h.h_count; sum = h.h_sum; max_v = h.h_max; buckets = !present }

let compare_key (n1, l1) (n2, l2) =
  match String.compare n1 n2 with 0 -> String.compare l1 l2 | c -> c

let read t =
  if not t.enabled then []
  else begin
    Mutex.lock t.lock;
    let rows =
      List.map
        (fun ((name, _), (labels, cell)) -> (name, labels, merged cell))
        (Tbl.sorted_bindings ~compare:compare_key t.metrics)
    in
    Mutex.unlock t.lock;
    rows
  end
