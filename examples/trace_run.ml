(* Tracing a run: attach a Chrome trace_event sink and a resource probe to
   a 4-replica HotStuff simulation, then print where each transaction's
   latency went. The produced trace.json opens directly in
   chrome://tracing or https://ui.perfetto.dev — one "process" per
   replica, one "thread" per machine queue (consensus / cpu / nic_out /
   nic_in), counter tracks for the probed queue depths. *)

module Trace = Bamboo_obs.Trace
module Probe = Bamboo_obs.Probe

let () =
  let config =
    {
      Bamboo.Config.default with
      protocol = Bamboo.Config.Hotstuff;
      n = 4;
      runtime = 3.0;
      warmup = 0.5;
      seed = 7;
      probe_interval = 0.01 (* sample queues every 10 virtual ms *);
    }
  in
  let workload = Bamboo.Workload.open_loop ~rate:20_000.0 () in
  let path = "trace.json" in
  let oc = open_out path in
  let trace = Trace.chrome oc in
  Format.printf "Tracing %a to %s...@." Bamboo.Config.pp config path;
  let result = Bamboo.Runtime.run ~config ~workload ~trace () in
  Trace.close trace;
  close_out oc;
  Format.printf "%a@." Bamboo.Metrics.pp_summary result.summary;
  Format.printf "simulator events: %d@." result.sim_events;
  (* Where did the latency go? The components sum to the measured mean. *)
  Format.printf "%a@." Bamboo.Metrics.pp_decomposition result.decomposition;
  (* What were the machines doing? *)
  List.iter
    (fun (s : Probe.summary) ->
      if s.name = "cpu_utilization" || s.name = "event_heap" then
        Format.printf "%a@." Probe.pp_summary s)
    result.probe;
  Format.printf "open %s in chrome://tracing or ui.perfetto.dev@." path
