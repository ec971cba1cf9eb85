(* The aggregate metrics registry (Bamboo_metrics): counters, gauges,
   log-bucketed histograms, exact counts under parallel writers, the two
   export formats, and the observe-only contract against the runtime. *)

module Registry = Bamboo_metrics.Registry
module Snapshot = Bamboo_metrics.Snapshot
module Pool = Bamboo_util.Pool
module Json = Bamboo_util.Json

(* The registry's metrics, read through its one read-out. *)
let read reg = (Registry.snapshot reg).Snapshot.metrics

(* The value of the counter (name, labels) in a snapshot of [reg]. *)
let counter_value reg ?labels name =
  match Snapshot.find (Registry.snapshot reg) ?labels name with
  | Some { Snapshot.value = Snapshot.Counter v; _ } -> v
  | Some _ | None -> Alcotest.failf "no counter %s" name

(* --- counters --- *)

let test_counter_basics () =
  let reg = Registry.create () in
  let c = Registry.counter reg "reqs_total" in
  Alcotest.(check int) "fresh" 0 (counter_value reg "reqs_total");
  Registry.Counter.incr c;
  Registry.Counter.add c 41;
  Alcotest.(check int) "incr + add" 42 (counter_value reg "reqs_total");
  (* idempotent registration: same handle target *)
  let c' = Registry.counter reg "reqs_total" in
  Registry.Counter.incr c';
  Alcotest.(check int) "second handle, same cell" 43
    (counter_value reg "reqs_total")

let test_counter_labels_distinct () =
  let reg = Registry.create () in
  let a = Registry.counter reg ~labels:[ ("node", "0") ] "commits" in
  let b = Registry.counter reg ~labels:[ ("node", "1") ] "commits" in
  Registry.Counter.add a 5;
  Registry.Counter.add b 7;
  Alcotest.(check int) "a" 5 (counter_value reg ~labels:[ ("node", "0") ] "commits");
  Alcotest.(check int) "b" 7 (counter_value reg ~labels:[ ("node", "1") ] "commits");
  (* label order is canonicalised *)
  let a' =
    Registry.counter reg ~labels:[ ("node", "0") ] "commits"
  in
  Registry.Counter.incr a';
  Alcotest.(check int) "canonical labels alias" 6
    (counter_value reg ~labels:[ ("node", "0") ] "commits")

let test_disabled_registry_inert () =
  let c = Registry.counter Registry.null "inert_counter" in
  Registry.Counter.incr c;
  Registry.Counter.add c 100;
  Alcotest.(check int) "no-op counter" 0
    (Snapshot.counter_value (Registry.snapshot Registry.null) "inert_counter");
  Alcotest.(check bool) "null disabled" false (Registry.enabled Registry.null);
  Alcotest.(check bool) "read empty" true (read Registry.null = [])

(* --- registration validation --- *)

let test_name_validation () =
  let reg = Registry.create () in
  let bad name =
    match Registry.counter reg name with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "accepted bad name %S" name
  in
  bad "";
  bad "CamelCase";
  bad "9starts_with_digit";
  bad "has-dash";
  bad "_leading_underscore";
  (* even disabled registries validate, so bugs surface in default runs *)
  (match Registry.counter Registry.null "Bad" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "null registry skipped validation");
  ignore (Registry.counter reg "ok_name_2" : Registry.Counter.t)

let test_kind_mismatch () =
  let reg = Registry.create () in
  ignore (Registry.counter reg "mixed_kind" : Registry.Counter.t);
  match Registry.gauge reg "mixed_kind" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "re-registered a counter as a gauge"

(* --- gauges --- *)

let test_gauge_stats () =
  let reg = Registry.create () in
  let g = Registry.gauge reg "depth" in
  List.iter (Registry.Gauge.set g) [ 2.0; 8.0; 4.0 ];
  match read reg with
  | [
   {
     name = "depth";
     labels = [];
     value = Gauge { last; min_v; max_v; mean; samples };
   };
  ] ->
      Alcotest.(check (float 0.0)) "last" 4.0 last;
      Alcotest.(check (float 0.0)) "min" 2.0 min_v;
      Alcotest.(check (float 0.0)) "max" 8.0 max_v;
      Alcotest.(check (float 0.0)) "mean" (14.0 /. 3.0) mean;
      Alcotest.(check int) "samples" 3 samples
  | _ -> Alcotest.fail "unexpected read shape"

(* --- histogram bucket maths --- *)

let test_bucket_exact_below_32 () =
  for v = 0 to 31 do
    Alcotest.(check int)
      (Printf.sprintf "index of %d" v)
      v (Snapshot.bucket_index v);
    Alcotest.(check int)
      (Printf.sprintf "lower of %d" v)
      v
      (Snapshot.bucket_lower (Snapshot.bucket_index v))
  done

let test_bucket_boundaries () =
  let probes =
    [ 0; 1; 15; 16; 31; 32; 33; 47; 48; 63; 64; 65; 100; 127; 128; 1000;
      65_535; 65_536; 1_000_000; 1_000_000_000; max_int / 2 ]
  in
  List.iter
    (fun v ->
      let idx = Snapshot.bucket_index v in
      let lower = Snapshot.bucket_lower idx in
      let next = Snapshot.bucket_lower (idx + 1) in
      if not (lower <= v) then
        Alcotest.failf "bucket_lower %d = %d > value %d" idx lower v;
      if not (v < next) then
        Alcotest.failf "value %d >= next bucket lower %d" v next)
    probes;
  (* first sub-bucketed octave starts exactly where exactness ends *)
  Alcotest.(check int) "index of 32" 32 (Snapshot.bucket_index 32);
  Alcotest.(check int) "lower of 48" 64 (Snapshot.bucket_lower 48)

let test_bucket_monotone () =
  let last = ref (-1) in
  for v = 0 to 100_000 do
    let idx = Snapshot.bucket_index v in
    if idx < !last then Alcotest.failf "bucket_index not monotone at %d" v;
    last := idx
  done;
  let prev = ref (-1) in
  for idx = 0 to 200 do
    let l = Snapshot.bucket_lower idx in
    if l <= !prev then Alcotest.failf "bucket_lower not increasing at %d" idx;
    prev := l
  done

let test_histogram_observe () =
  let reg = Registry.create () in
  let h = Registry.histogram reg "lat_ns" in
  Registry.Histogram.observe h 10;
  Registry.Histogram.observe h 10;
  Registry.Histogram.observe h 100;
  Registry.Histogram.observe h (-5) (* clamps to 0 *);
  match read reg with
  | [
   { name = "lat_ns"; labels = []; value = Histogram { count; sum; max_v; buckets } };
  ] ->
      Alcotest.(check int) "count" 4 count;
      Alcotest.(check int) "sum" 120 sum;
      Alcotest.(check int) "max" 100 max_v;
      Alcotest.(check (list (pair int int)))
        "buckets" [ (0, 1); (10, 2); (100, 1) ] buckets
  | _ -> Alcotest.fail "unexpected read shape"

let test_histogram_observe_s () =
  let reg = Registry.create () in
  let h = Registry.histogram reg "lat_s_ns" in
  Registry.Histogram.observe_s h 1e-6 (* 1000 ns *);
  match read reg with
  | [ { name = "lat_s_ns"; labels = []; value = Histogram { count = 1; max_v; _ } } ]
    ->
      Alcotest.(check int) "nanoseconds" 1000 max_v
  | _ -> Alcotest.fail "unexpected read shape"

(* --- percentiles --- *)

let test_percentile () =
  Alcotest.(check int) "empty" 0
    (Snapshot.percentile ~buckets:[] ~count:0 ~max_v:0 50.0);
  let buckets = [ (10, 50); (100, 49); (1000, 1) ] in
  let p = Snapshot.percentile ~buckets ~count:100 ~max_v:1234 in
  Alcotest.(check int) "p50 in first bucket" 10 (p 50.0);
  Alcotest.(check int) "p95 in second bucket" 100 (p 95.0);
  Alcotest.(check int) "p100 exact max" 1234 (p 100.0)

(* --- parallel writers --- *)

let pool_read ~jobs =
  let reg = Registry.create () in
  let c = Registry.counter reg "tasks_done" in
  let h = Registry.histogram reg "task_cost_ns" in
  let results =
    Pool.map ~jobs
      (fun i ->
        Registry.Counter.incr c;
        Registry.Histogram.observe h (i * 37);
        i)
      (List.init 64 Fun.id)
  in
  Alcotest.(check (list int)) "pool order" (List.init 64 Fun.id) results;
  read reg

let test_merge_determinism () =
  (* counters and histograms accumulate commutatively, so the read is
     identical whether 1 or 4 worker domains did the recording *)
  let r1 = pool_read ~jobs:1 and r4 = pool_read ~jobs:4 in
  Alcotest.(check bool) "jobs 1 == jobs 4" true (r1 = r4);
  match r1 with
  | [
   { name = "task_cost_ns"; labels = []; value = Histogram { count = 64; _ } };
   { name = "tasks_done"; labels = []; value = Counter 64 };
  ] ->
      ()
  | _ -> Alcotest.fail "unexpected merged shape"

let test_systhreads_exact () =
  (* systhreads share one domain and can be preempted mid-update; the
     registry's lock keeps every increment *)
  let reg = Registry.create () in
  let c = Registry.counter reg "thread_incrs" in
  let h = Registry.histogram reg "thread_obs" in
  let per_thread = 10_000 in
  let threads =
    List.init 4 (fun t ->
        Thread.create
          (fun () ->
            for i = 1 to per_thread do
              Registry.Counter.incr c;
              Registry.Histogram.observe h (t + i)
            done)
          ())
  in
  List.iter Thread.join threads;
  match read reg with
  | [
   { name = "thread_incrs"; labels = []; value = Counter n };
   { name = "thread_obs"; labels = []; value = Histogram { count; buckets; _ } };
  ] ->
      Alcotest.(check int) "counter exact" 40_000 n;
      Alcotest.(check int) "histogram count exact" 40_000 count;
      Alcotest.(check int) "bucket total exact" 40_000
        (List.fold_left (fun acc (_, k) -> acc + k) 0 buckets)
  | _ -> Alcotest.fail "unexpected read shape"

(* --- export goldens --- *)

let golden_snapshot () =
  let reg = Registry.create () in
  let c = Registry.counter reg "requests_total" in
  Registry.Counter.add c 3;
  let g = Registry.gauge reg ~labels:[ ("node", "0") ] "queue_depth" in
  Registry.Gauge.set g 2.0;
  Registry.Gauge.set g 4.0;
  let h = Registry.histogram reg "latency_ns" in
  Registry.Histogram.observe h 10;
  Registry.Histogram.observe h 100;
  Registry.snapshot reg

let test_prometheus_golden () =
  let expected =
    "# TYPE latency_ns histogram\n\
     latency_ns_bucket{le=\"10\"} 1\n\
     latency_ns_bucket{le=\"103\"} 2\n\
     latency_ns_bucket{le=\"+Inf\"} 2\n\
     latency_ns_sum 110\n\
     latency_ns_count 2\n\
     # TYPE queue_depth gauge\n\
     queue_depth{node=\"0\"} 4\n\
     # TYPE requests_total counter\n\
     requests_total 3\n"
  in
  Alcotest.(check string)
    "prometheus text" expected
    (Snapshot.to_prometheus (golden_snapshot ()))

let test_json_golden () =
  let expected =
    Json.Obj
      [
        ( "metrics",
          Json.List
            [
              Json.Obj
                [
                  ("name", Json.String "latency_ns");
                  ("type", Json.String "histogram");
                  ("count", Json.Int 2);
                  ("sum", Json.Int 110);
                  ("max", Json.Int 100);
                  ("p50", Json.Int 10);
                  ("p95", Json.Int 100);
                  ("p99", Json.Int 100);
                  ( "buckets",
                    Json.List
                      [
                        Json.List [ Json.Int 10; Json.Int 1 ];
                        Json.List [ Json.Int 100; Json.Int 1 ];
                      ] );
                ];
              Json.Obj
                [
                  ("name", Json.String "queue_depth");
                  ("labels", Json.Obj [ ("node", Json.String "0") ]);
                  ("type", Json.String "gauge");
                  ("last", Json.Float 4.0);
                  ("min", Json.Float 2.0);
                  ("max", Json.Float 4.0);
                  ("mean", Json.Float 3.0);
                  ("samples", Json.Int 2);
                ];
              Json.Obj
                [
                  ("name", Json.String "requests_total");
                  ("type", Json.String "counter");
                  ("value", Json.Int 3);
                ];
            ] );
      ]
  in
  Alcotest.(check string)
    "json export"
    (Json.to_string expected)
    (Json.to_string (Snapshot.to_json (golden_snapshot ())))

let test_snapshot_lookups () =
  let s = golden_snapshot () in
  Alcotest.(check int) "counter_value" 3 (Snapshot.counter_value s "requests_total");
  Alcotest.(check int) "counter_value absent" 0 (Snapshot.counter_value s "nope");
  Alcotest.(check bool) "find labelled" true
    (Snapshot.find s ~labels:[ ("node", "0") ] "queue_depth" <> None);
  Alcotest.(check bool) "find wrong labels" true
    (Snapshot.find s "queue_depth" = None);
  Alcotest.(check bool) "empty snapshot" true (Snapshot.is_empty Snapshot.empty)

(* --- allocation smoke --- *)

let alloc_delta f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_disabled_zero_alloc () =
  let c = Registry.counter Registry.null "noop_c" in
  let h = Registry.histogram Registry.null "noop_h" in
  let g = Registry.gauge Registry.null "noop_g" in
  let v = 1.5 in
  let delta =
    alloc_delta (fun () ->
        for i = 0 to 99_999 do
          Registry.Counter.incr c;
          Registry.Counter.add c i;
          Registry.Histogram.observe h i;
          Registry.Gauge.set g v
        done)
  in
  if delta > 1000.0 then
    Alcotest.failf "disabled record path allocated %.0f minor words" delta

let test_enabled_steady_state_alloc () =
  let reg = Registry.create () in
  let c = Registry.counter reg "hot_c" in
  let h = Registry.histogram reg "hot_h" in
  let g = Registry.gauge reg "hot_g" in
  let v = 2.5 in
  let delta =
    alloc_delta (fun () ->
        for i = 0 to 99_999 do
          Registry.Counter.incr c;
          Registry.Histogram.observe h i;
          Registry.Gauge.set g v
        done)
  in
  if delta > 1000.0 then
    Alcotest.failf "enabled record path allocated %.0f minor words" delta

(* --- runtime integration --- *)

let run_config = { Bamboo.Config.default with runtime = 2.0 }
let run_workload = Bamboo.Workload.open_loop ~rate:2000.0 ()

let test_runtime_identity () =
  (* the headline contract: attaching a registry must not change one byte
     of simulation output *)
  let r_off = Bamboo.Runtime.run ~config:run_config ~workload:run_workload () in
  let reg = Registry.create () in
  let r_on =
    Bamboo.Runtime.run ~config:run_config ~workload:run_workload ~metrics:reg ()
  in
  Alcotest.(check bool) "summary identical" true
    (r_off.Bamboo.Runtime.summary = r_on.Bamboo.Runtime.summary);
  (* A head hash pins its replica's whole committed chain. *)
  Alcotest.(check bool) "committed heights and heads identical" true
    (r_off.Bamboo.Runtime.committed_heights
     = r_on.Bamboo.Runtime.committed_heights
    && r_off.Bamboo.Runtime.agreement.Bamboo.Agreement.heads
       = r_on.Bamboo.Runtime.agreement.Bamboo.Agreement.heads);
  Alcotest.(check int) "sim_events identical" r_off.Bamboo.Runtime.sim_events
    r_on.Bamboo.Runtime.sim_events;
  Alcotest.(check bool) "final views identical" true
    (r_off.Bamboo.Runtime.final_views = r_on.Bamboo.Runtime.final_views);
  Alcotest.(check bool) "disabled run has empty snapshot" true
    (Snapshot.is_empty r_off.Bamboo.Runtime.metrics);
  (* and the published counters agree with the runtime's own numbers *)
  let snap = r_on.Bamboo.Runtime.metrics in
  Alcotest.(check int) "sim_events_fired"
    r_on.Bamboo.Runtime.sim_events
    (Snapshot.counter_value snap "sim_events_fired");
  let commits = Snapshot.counter_value snap "replica_commits" in
  Alcotest.(check bool) "replica commits recorded" true (commits > 0);
  Alcotest.(check bool) "network sends recorded" true
    (Snapshot.counter_value snap "net_sends" > 0)

let test_probe_registry_consistency () =
  (* the probe records its samples only in the registry: the run's probe
     gauges and the metrics export must report one consistent number *)
  let config = { run_config with probe_interval = 0.05 } in
  let reg = Registry.create () in
  let r = Bamboo.Runtime.run ~config ~workload:run_workload ~metrics:reg () in
  let p_samples, p_mean, p_max =
    match
      Snapshot.find { metrics = r.Bamboo.Runtime.probe } "event_heap"
    with
    | Some { value = Gauge { samples; mean; max_v; _ }; _ } ->
        (samples, mean, max_v)
    | Some _ | None -> Alcotest.fail "no event_heap probe gauge"
  in
  match Snapshot.find r.Bamboo.Runtime.metrics "event_heap" with
  | Some { Snapshot.value = Snapshot.Gauge { mean; max_v; samples; _ }; _ } ->
      Alcotest.(check int) "samples agree" p_samples samples;
      Alcotest.(check (float 1e-9)) "mean agrees" p_mean mean;
      Alcotest.(check (float 1e-9)) "max agrees" p_max max_v
  | _ -> Alcotest.fail "event_heap gauge missing from metrics export"

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "counter labels" `Quick test_counter_labels_distinct;
    Alcotest.test_case "disabled registry inert" `Quick
      test_disabled_registry_inert;
    Alcotest.test_case "name validation" `Quick test_name_validation;
    Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
    Alcotest.test_case "gauge stats" `Quick test_gauge_stats;
    Alcotest.test_case "buckets exact below 32" `Quick
      test_bucket_exact_below_32;
    Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
    Alcotest.test_case "bucket monotone" `Quick test_bucket_monotone;
    Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
    Alcotest.test_case "histogram observe_s" `Quick test_histogram_observe_s;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "parallel merge determinism" `Quick
      test_merge_determinism;
    Alcotest.test_case "systhreads count exactly" `Quick test_systhreads_exact;
    Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
    Alcotest.test_case "json golden" `Quick test_json_golden;
    Alcotest.test_case "snapshot lookups" `Quick test_snapshot_lookups;
    Alcotest.test_case "disabled zero-alloc" `Quick test_disabled_zero_alloc;
    Alcotest.test_case "enabled steady-state alloc" `Quick
      test_enabled_steady_state_alloc;
    Alcotest.test_case "runtime identity on/off" `Quick test_runtime_identity;
    Alcotest.test_case "probe/registry consistency" `Quick
      test_probe_registry_consistency;
  ]
