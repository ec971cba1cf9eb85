module Stats = Bamboo_util.Stats
module Registry = Bamboo_metrics.Registry

type gauge = {
  node : int;
  name : string;
  read : unit -> float;
  stats : Stats.t;
  metric : Registry.Gauge.t;
      (* the same sample feeds the Stats collector, the trace sink and the
         metrics registry, so probes and metrics report one number *)
}

type t = {
  trace : Trace.t;
  registry : Registry.t;
  mutable gauges : gauge list; (* reverse insertion order *)
  mutable ticks : int;
}

type summary = {
  node : int;
  name : string;
  samples : int;
  mean : float;
  max : float;
}

let create ?(trace = Trace.null) ?(registry = Registry.null) () =
  { trace; registry; gauges = []; ticks = 0 }

let add_gauge t ~node ~name read =
  let labels = if node >= 0 then [ ("node", string_of_int node) ] else [] in
  let metric = Registry.gauge t.registry ~labels name in
  t.gauges <- { node; name; read; stats = Stats.create (); metric } :: t.gauges

let sample t ~now =
  t.ticks <- t.ticks + 1;
  List.iter
    (fun g ->
      let v = g.read () in
      Stats.add g.stats v;
      Trace.gauge t.trace ~ts:now ~node:g.node ~name:g.name v;
      Registry.Gauge.set g.metric v)
    (List.rev t.gauges)

let samples t = t.ticks

let summaries t =
  List.rev_map
    (fun (g : gauge) ->
      {
        node = g.node;
        name = g.name;
        samples = Stats.count g.stats;
        mean = Stats.mean g.stats;
        max = Stats.max_value g.stats;
      })
    t.gauges

let find_summary summaries ~node ~name =
  List.find_opt
    (fun (s : summary) -> s.node = node && s.name = name)
    summaries

let find t ~node ~name = find_summary (summaries t) ~node ~name

let pp_summary fmt (s : summary) =
  Format.fprintf fmt "node %d %-20s mean %10.3f  max %10.3f  (%d samples)"
    s.node s.name s.mean s.max s.samples
