(* The result line: {"correct", "attempted", "failed", "metrics"}, where
   every metric is {"value", "unit"}. The runner adds [setup_s]. *)

module J = Bamboo_util.Json

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  errors : string list;  (** Why [correct] is false; printed to stderr. *)
}

let to_json r =
  J.Obj
    [
      ("correct", J.Bool r.correct);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun x ->
               ( x.name,
                 J.Obj [ ("value", J.Float x.value); ("unit", J.String x.unit_) ] ))
             r.metrics) );
    ]

(* A metric that came out NaN or infinite is a benchmark bug: report it as
   a failed gate rather than print invalid JSON. *)
let sanitize r =
  let bad = List.filter (fun x -> not (Float.is_finite x.value)) r.metrics in
  if bad = [] then r
  else
    {
      r with
      correct = false;
      metrics =
        List.map
          (fun x -> if Float.is_finite x.value then x else { x with value = 0.0 })
          r.metrics;
      errors =
        r.errors
        @ List.map (fun x -> Printf.sprintf "metric %s is not finite" x.name) bad;
    }

let print r =
  let r = sanitize r in
  List.iter (fun e -> Printf.eprintf "perfbench: FAILED GATE: %s\n" e) r.errors;
  List.iter
    (fun x -> Printf.eprintf "  %-32s %14.6g %s\n" x.name x.value x.unit_)
    r.metrics;
  print_endline (J.to_string (to_json r));
  r.correct

(* Per-layer metrics that have no meaning on a workload's plane (the
   simulator has no transport, the TCP cluster no event queue or domain
   pool) are printed there as 0 so every run reports the same set. *)
let not_applicable_on_sim =
  [
    ("transport.sends_per_block", "count");
    ("transport.bytes_per_tx", "B");
    ("transport.send_us", "us");
    ("transport.recv_batch_mean", "count");
    ("transport.recv_wait_share", "ratio");
    ("transport.inbox_peak", "count");
    ("transport.dropped", "count");
    ("gen.lateness_p99_ms", "ms");
    ("observer.poll_gap_p99_ms", "ms");
  ]

let not_applicable_on_tcp =
  [
    ("sim.events", "count");
    ("sim.events_per_s", "1/s");
    ("sim.queue_peak", "count");
    ("machine.ops_per_view", "count");
    ("pool.tasks", "count");
    ("pool.task_s_max", "s");
    ("pool.efficiency", "ratio");
  ]

let add_zeros r names =
  { r with metrics = r.metrics @ List.map (fun (name, unit_) -> m name unit_ 0.0) names }
