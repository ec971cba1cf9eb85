(* The one read-out of a metrics registry: the value every registered
   cell reads as, the histograms' bucket maths, and the two export formats
   the tooling speaks (Prometheus text exposition and the repo's Json
   module). [Registry.snapshot] builds a [t]; nothing else reads a cell. *)

module Json = Bamboo_util.Json

type value =
  | Counter of int
  | Gauge of { last : float; min_v : float; max_v : float; mean : float; samples : int }
  | Histogram of {
      count : int;
      sum : int;
      max_v : int;
      buckets : (int * int) list; (* (lower bound, count), ascending *)
    }

type metric = {
  name : string;
  labels : (string * string) list;
  value : value;
}

type t = { metrics : metric list }

let empty = { metrics = [] }
let is_empty t = t.metrics = []

let find t ?(labels = []) name =
  let labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  List.find_opt (fun m -> m.name = name && m.labels = labels) t.metrics

(* Sum of every counter sharing [name], across label sets — e.g. total
   commits over all [replica_commits{node=...}]. *)
let counter_value t name =
  List.fold_left
    (fun acc m ->
      match m.value with
      | Counter v when m.name = name -> acc + v
      | _ -> acc)
    0 t.metrics

(* ------------------------------------------------------ bucket maths *)

(* HDR-style log buckets with 16 sub-buckets per octave: values below 32 get
   one bucket each (exact), and every value >= 32 lands in a bucket whose
   width is 1/16 of its octave, bounding the relative quantile error at
   ~6%. With 63-bit ints the largest index is (61-3)*16 + 15 = 943. *)
let sub_bits = 4
let first_log = 32 (* 1 lsl (sub_bits + 1): below this, one bucket per value *)

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

(* Percentile over merged buckets: the lower bound of the bucket where the
   cumulative count crosses the rank, except p100 which reports the exact
   maximum. Deterministic and merge-stable. *)
let percentile ~buckets ~count ~max_v p =
  if count = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (p /. 100.0 *. float_of_int count)) in
      if r < 1 then 1 else if r > count then count else r
    in
    if rank = count then max_v
    else begin
      let rec walk cum = function
        | [] -> max_v
        | (lower, n) :: rest ->
            let cum = cum + n in
            if cum >= rank then lower else walk cum rest
      in
      walk 0 buckets
    end
  end

(* ------------------------------------------------------------------ JSON *)

let labels_json labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let metric_json m =
  let base = [ ("name", Json.String m.name) ] in
  let base =
    if m.labels = [] then base else base @ [ ("labels", labels_json m.labels) ]
  in
  let rest =
    match m.value with
    | Counter v -> [ ("type", Json.String "counter"); ("value", Json.Int v) ]
    | Gauge { last; min_v; max_v; mean; samples } ->
        [
          ("type", Json.String "gauge");
          ("last", Json.Float last);
          ("min", Json.Float min_v);
          ("max", Json.Float max_v);
          ("mean", Json.Float mean);
          ("samples", Json.Int samples);
        ]
    | Histogram { count; sum; max_v; buckets } ->
        let p q = Json.Int (percentile ~buckets ~count ~max_v q) in
        [
          ("type", Json.String "histogram");
          ("count", Json.Int count);
          ("sum", Json.Int sum);
          ("max", Json.Int max_v);
          ("p50", p 50.0);
          ("p95", p 95.0);
          ("p99", p 99.0);
          ( "buckets",
            Json.List
              (List.map
                 (fun (lower, n) -> Json.List [ Json.Int lower; Json.Int n ])
                 buckets) );
        ]
  in
  Json.Obj (base @ rest)

let to_json t = Json.Obj [ ("metrics", Json.List (List.map metric_json t.metrics)) ]

(* ------------------------------------------------------------ Prometheus *)

let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun ch ->
      match ch with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
             labels)
      ^ "}"

let float_str v =
  (* Prometheus wants plain decimal; %.17g round-trips doubles but emits
     noise for simple values, so prefer the shortest exact form. *)
  let s = Printf.sprintf "%.12g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let typed = Hashtbl.create 16 in
  let type_line name kind =
    if not (Hashtbl.mem typed name) then begin
      Hashtbl.add typed name ();
      Printf.bprintf buf "# TYPE %s %s\n" name kind
    end
  in
  List.iter
    (fun m ->
      let labels = render_labels m.labels in
      match m.value with
      | Counter v ->
          type_line m.name "counter";
          Printf.bprintf buf "%s%s %d\n" m.name labels v
      | Gauge { last; _ } ->
          type_line m.name "gauge";
          Printf.bprintf buf "%s%s %s\n" m.name labels (float_str last)
      | Histogram { count; sum; max_v = _; buckets } ->
          type_line m.name "histogram";
          let bucket le n =
            Printf.bprintf buf "%s_bucket%s %d\n" m.name
              (render_labels (m.labels @ [ ("le", le) ]))
              n
          in
          let cum = ref 0 in
          List.iter
            (fun (lower, n) ->
              cum := !cum + n;
              (* our buckets are [lower, next_lower); Prometheus "le" is an
                 inclusive upper bound, so emit the last value the bucket
                 can hold *)
              let le = bucket_lower (bucket_index lower + 1) - 1 in
              bucket (string_of_int le) !cum)
            buckets;
          bucket "+Inf" count;
          Printf.bprintf buf "%s_sum%s %d\n" m.name labels sum;
          Printf.bprintf buf "%s_count%s %d\n" m.name labels count)
    t.metrics;
  Buffer.contents buf
