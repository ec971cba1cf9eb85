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

(* One counter per bucket of [Snapshot.bucket_index], whose largest index
   is that of [max_int]. *)
let n_buckets = Snapshot.bucket_index max_int + 1

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
end

module Histogram = struct
  type nonrec t = { reg : t; cell : hcell }

  let observe_many h v ~count =
    if count < 0 then invalid_arg "Registry.Histogram.observe_many: negative count";
    if h.reg.enabled && count > 0 then begin
      let v = if v < 0 then 0 else v in
      let i = Snapshot.bucket_index v in
      Mutex.lock h.reg.lock;
      let c = h.cell in
      c.h_sum <- c.h_sum + (v * count);
      c.h_count <- c.h_count + count;
      if v > c.h_max then c.h_max <- v;
      let b = c.h_buckets in
      Array.unsafe_set b i (Array.unsafe_get b i + count);
      Mutex.unlock h.reg.lock
    end

  let observe h v = observe_many h v ~count:1

  (* Seconds -> nanoseconds, the unit every *_ns histogram records. *)
  let observe_s h secs = observe h (int_of_float (secs *. 1e9))
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

(* The one place a cell becomes a value. Called with the lock held. *)
let value : cell -> Snapshot.value = function
  | C c -> Counter c.c_value
  | G g ->
      let empty = g.g_count = 0.0 in
      Gauge
        {
          last = g.g_last;
          min_v = (if empty then 0.0 else g.g_min);
          max_v = (if empty then 0.0 else g.g_max);
          mean = (if empty then 0.0 else g.g_sum /. g.g_count);
          samples = int_of_float g.g_count;
        }
  | H h ->
      let present = ref [] in
      for i = n_buckets - 1 downto 0 do
        let n = h.h_buckets.(i) in
        if n > 0 then present := (Snapshot.bucket_lower i, n) :: !present
      done;
      Histogram
        { count = h.h_count; sum = h.h_sum; max_v = h.h_max; buckets = !present }

let compare_key (n1, l1) (n2, l2) =
  match String.compare n1 n2 with 0 -> String.compare l1 l2 | c -> c

let snapshot t =
  if not t.enabled then Snapshot.empty
  else begin
    Mutex.lock t.lock;
    let metrics =
      List.map
        (fun ((name, _), (labels, cell)) ->
          { Snapshot.name; labels; value = value cell })
        (Tbl.sorted_bindings ~compare:compare_key t.metrics)
    in
    Mutex.unlock t.lock;
    { Snapshot.metrics }
  end
