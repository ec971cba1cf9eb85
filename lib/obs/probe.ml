module Registry = Bamboo_metrics.Registry
module Snapshot = Bamboo_metrics.Snapshot

type gauge = {
  node : int;
  name : string;
  labels : (string * string) list;
  read : unit -> float;
  metric : Registry.Gauge.t;
}

type t = {
  trace : Trace.t;
  registry : Registry.t; (* enabled; the only store of samples *)
  mutable gauges : gauge list; (* reverse insertion order *)
}

type summary = {
  node : int;
  name : string;
  samples : int;
  mean : float;
  max : float;
}

let create ?(trace = Trace.null) ?(registry = Registry.null) () =
  let registry =
    if Registry.enabled registry then registry else Registry.create ()
  in
  { trace; registry; gauges = [] }

let add_gauge t ~node ~name read =
  let labels = if node >= 0 then [ ("node", string_of_int node) ] else [] in
  let metric = Registry.gauge t.registry ~labels name in
  t.gauges <- { node; name; labels; read; metric } :: t.gauges

let sample t ~now =
  List.iter
    (fun g ->
      let v = g.read () in
      Trace.gauge t.trace ~ts:now ~node:g.node ~name:g.name v;
      Registry.Gauge.set g.metric v)
    (List.rev t.gauges)

let summaries t =
  let snap = Snapshot.of_registry t.registry in
  List.rev_map
    (fun (g : gauge) ->
      match Snapshot.find snap ~labels:g.labels g.name with
      | Some { value = Gauge { mean; max_v; samples; _ }; _ } ->
          { node = g.node; name = g.name; samples; mean; max = max_v }
      | Some _ | None -> assert false (* [add_gauge] registered a gauge *))
    t.gauges

let find_summary summaries ~node ~name =
  List.find_opt
    (fun (s : summary) -> s.node = node && s.name = name)
    summaries

let pp_summary fmt (s : summary) =
  Format.fprintf fmt "node %d %-20s mean %10.3f  max %10.3f  (%d samples)"
    s.node s.name s.mean s.max s.samples
