module Metrics = Bamboo.Metrics

let mk () = Metrics.create ~warmup:1.0 ~horizon:11.0 ~bucket:1.0

let summarize t =
  Metrics.summarize t ~protocol:"test" ~rejected_txs:0 ~safety_violation:false

let test_window () =
  let t = mk () in
  Alcotest.(check bool) "before warmup" false (Metrics.in_window t ~now:0.5);
  Alcotest.(check bool) "inside" true (Metrics.in_window t ~now:5.0);
  Alcotest.(check bool) "after horizon" false (Metrics.in_window t ~now:11.5)

let test_throughput () =
  let t = mk () in
  Metrics.record_commit t ~now:2.0 ~ntxs:500 ~nblocks:2 ~hashes:[];
  Metrics.record_commit t ~now:3.0 ~ntxs:500 ~nblocks:2 ~hashes:[];
  (* outside the window: ignored by aggregates *)
  Metrics.record_commit t ~now:0.5 ~ntxs:999 ~nblocks:1 ~hashes:[];
  Metrics.record_commit t ~now:11.5 ~ntxs:999 ~nblocks:1 ~hashes:[];
  let s = summarize t in
  Alcotest.(check int) "txs" 1000 s.committed_txs;
  Alcotest.(check int) "blocks" 4 s.committed_blocks;
  Alcotest.(check (float 1e-9)) "throughput over 10s" 100.0 s.throughput

let test_latency_window_rules () =
  let t = mk () in
  let counted label want ~now ~issued_at ~latency =
    Alcotest.(check bool) label want
      (Metrics.record_latency t ~now ~issued_at ~latency)
  in
  (* issued before warmup: excluded even though completion is inside. *)
  counted "issued in warmup" false ~now:2.0 ~issued_at:0.5 ~latency:1.5;
  (* issued inside, completes inside: counted. *)
  counted "inside" true ~now:3.0 ~issued_at:2.0 ~latency:1.0;
  counted "inside" true ~now:4.0 ~issued_at:2.0 ~latency:2.0;
  (* completes after horizon: excluded. *)
  counted "done after horizon" false ~now:12.0 ~issued_at:10.0 ~latency:2.0;
  let s = summarize t in
  Alcotest.(check int) "samples" 2 s.latency_samples;
  Alcotest.(check (float 1e-9)) "mean" 1.5 s.latency_mean

(* One tx fed to both stores, the latency samples and the stage means. *)
let record_tx t ~now ~issued_at ~stage =
  ignore (Metrics.record_latency t ~now ~issued_at ~latency:(now -. issued_at));
  Metrics.record_stages t ~now ~issued_at ~client_wire:stage
    ~cpu_queue:(2.0 *. stage) ~cpu_service:(3.0 *. stage)
    ~mempool_wait:(4.0 *. stage) ~nic_serialization:(5.0 *. stage)

(* Both stores count a tx under one window: issued after warmup,
   completed before the horizon. *)
let test_stages_share_latency_window () =
  let t = mk () in
  record_tx t ~now:2.0 ~issued_at:0.5 ~stage:0.01 (* issued in warmup *);
  record_tx t ~now:11.0 ~issued_at:10.0 ~stage:0.02 (* done at horizon *);
  record_tx t ~now:4.0 ~issued_at:3.0 ~stage:0.03;
  Alcotest.(check int) "latency samples" 1 (summarize t).latency_samples;
  let d = Metrics.decomposition t in
  Alcotest.(check int) "decomposition samples" 1 d.samples;
  let close = Alcotest.float 1e-12 in
  Alcotest.check close "client wire" 0.03 d.client_wire;
  Alcotest.check close "cpu queue" 0.06 d.cpu_queue;
  Alcotest.check close "cpu service" 0.09 d.cpu_service;
  Alcotest.check close "mempool" 0.12 d.mempool_wait;
  Alcotest.check close "nic" 0.15 d.nic_serialization;
  Alcotest.check close "consensus" 0.55 d.consensus_wait;
  Alcotest.check close "total" 1.0 d.total

(* The stages arrive as labelled floats, so folding one allocates
   nothing. *)
let test_stages_no_alloc () =
  let t = mk () in
  Helpers.check_no_alloc "Metrics.record_stages" (fun _ ->
      Metrics.record_stages t ~now:4.0 ~issued_at:3.0 ~client_wire:0.1
        ~cpu_queue:0.2 ~cpu_service:0.3 ~mempool_wait:0.4
        ~nic_serialization:0.5);
  Alcotest.(check int) "recorded" 100_000 (Metrics.decomposition t).samples

let test_percentiles_in_summary () =
  let t = mk () in
  List.iter
    (fun l ->
      ignore (Metrics.record_latency t ~now:5.0 ~issued_at:4.0 ~latency:l))
    (List.init 100 (fun i -> float_of_int (i + 1)));
  let s = summarize t in
  Alcotest.(check bool) "p50 < p95 < p99" true
    (s.latency_p50 < s.latency_p95 && s.latency_p95 < s.latency_p99)

let test_cgr_and_bi () =
  let t = mk () in
  (* Four accepted blocks: three commit, one is overwritten. *)
  List.iter
    (fun h -> Metrics.record_append t ~now:2.0 ~hash:h)
    [ "b1"; "b2"; "b3"; "b4" ];
  Metrics.record_commit t ~now:2.5 ~ntxs:10 ~nblocks:3
    ~hashes:[ "b1"; "b2"; "b3" ];
  Metrics.record_fork t ~now:2.6 ~nblocks:1 ~hashes:[ "b4" ];
  Metrics.record_block_interval t ~now:2.5 ~views:3;
  Metrics.record_block_interval t ~now:2.5 ~views:3;
  Metrics.record_block_interval t ~now:2.5 ~views:4;
  let s = summarize t in
  Alcotest.(check (float 1e-9)) "CGR = committed/(committed+overwritten)" 0.75
    s.cgr;
  Alcotest.(check (float 1e-6)) "BI mean" (10.0 /. 3.0) s.block_interval

let test_cgr_ignores_unaccepted_junk () =
  let t = mk () in
  List.iter (fun h -> Metrics.record_append t ~now:2.0 ~hash:h) [ "b1"; "b2" ];
  Metrics.record_commit t ~now:2.5 ~ntxs:5 ~nblocks:2 ~hashes:[ "b1"; "b2" ];
  (* A pruned block the observer never voted for (e.g. a futile Streamlet
     fork) must not lower the CGR. *)
  Metrics.record_fork t ~now:2.6 ~nblocks:1 ~hashes:[ "junk" ];
  Alcotest.(check (float 1e-9)) "CGR stays 1" 1.0 (summarize t).cgr

(* Each appended block's entry goes once its commit or fork is seen:
   100,000 blocks that each resolve a few blocks behind leave the
   collector the size it was after the first few, where keeping every
   hash would hold about 6 words a block. *)
let test_appended_bounded () =
  let t = Metrics.create ~warmup:0.0 ~horizon:1e9 ~bucket:1e9 in
  let hash i = Printf.sprintf "%032d" i in
  let behind = 3 in
  let words = ref 0 in
  for i = 0 to 100_000 - 1 do
    Metrics.record_append t ~now:1.0 ~hash:(hash i);
    if i >= behind then begin
      let h = hash (i - behind) in
      if i mod 10 = 0 then Metrics.record_fork t ~now:1.0 ~nblocks:1 ~hashes:[ h ]
      else Metrics.record_commit t ~now:1.0 ~ntxs:1 ~nblocks:1 ~hashes:[ h ]
    end;
    if i = 1000 then words := Obj.reachable_words (Obj.repr t)
  done;
  let final = Obj.reachable_words (Obj.repr t) in
  if final > !words then
    Alcotest.failf "collector grew from %d to %d words" !words final;
  let s = summarize t in
  Alcotest.(check int) "forked" 9_999 s.forked_blocks;
  Alcotest.(check (float 1e-9)) "CGR" (89_998.0 /. 99_997.0) s.cgr

let test_forked_counter () =
  let t = mk () in
  Metrics.record_fork t ~now:3.0 ~nblocks:2 ~hashes:[];
  Metrics.record_fork t ~now:0.2 ~nblocks:5 ~hashes:[] (* warmup: ignored *);
  let s = summarize t in
  Alcotest.(check int) "forked" 2 s.forked_blocks

let test_views_span () =
  let t = mk () in
  Metrics.set_view_span t ~first:100 ~last:350;
  Alcotest.(check int) "views" 250 (summarize t).views

let test_series_includes_warmup () =
  let t = mk () in
  Metrics.record_commit t ~now:0.5 ~ntxs:100 ~nblocks:1 ~hashes:[];
  Metrics.record_commit t ~now:2.5 ~ntxs:300 ~nblocks:1 ~hashes:[];
  Metrics.record_commit t ~now:2.7 ~ntxs:200 ~nblocks:1 ~hashes:[];
  let series = Metrics.throughput_series t in
  Alcotest.(check int) "bucket count" 3 (List.length series);
  Alcotest.(check (float 1e-9)) "warmup bucket present" 100.0
    (List.assoc 0.0 series);
  Alcotest.(check (float 1e-9)) "bucket 2 aggregates" 500.0
    (List.assoc 2.0 series);
  Alcotest.(check (float 1e-9)) "empty bucket zero" 0.0 (List.assoc 1.0 series)

let test_empty_summary () =
  let s = summarize (mk ()) in
  Alcotest.(check (float 0.0)) "throughput" 0.0 s.throughput;
  Alcotest.(check (float 0.0)) "cgr" 0.0 s.cgr;
  Alcotest.(check int) "samples" 0 s.latency_samples

let test_invalid_create () =
  (match Metrics.create ~warmup:5.0 ~horizon:5.0 ~bucket:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "horizon = warmup accepted");
  match Metrics.create ~warmup:0.0 ~horizon:1.0 ~bucket:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero bucket accepted"

let suite =
  [
    Alcotest.test_case "window" `Quick test_window;
    Alcotest.test_case "throughput" `Quick test_throughput;
    Alcotest.test_case "appended set bounded" `Quick test_appended_bounded;
    Alcotest.test_case "latency window rules" `Quick test_latency_window_rules;
    Alcotest.test_case "stages share the latency window" `Quick
      test_stages_share_latency_window;
    Alcotest.test_case "stages allocate nothing" `Quick test_stages_no_alloc;
    Alcotest.test_case "percentiles" `Quick test_percentiles_in_summary;
    Alcotest.test_case "CGR and BI" `Quick test_cgr_and_bi;
    Alcotest.test_case "CGR ignores unaccepted junk" `Quick
      test_cgr_ignores_unaccepted_junk;
    Alcotest.test_case "forked counter" `Quick test_forked_counter;
    Alcotest.test_case "views span" `Quick test_views_span;
    Alcotest.test_case "series" `Quick test_series_includes_warmup;
    Alcotest.test_case "empty summary" `Quick test_empty_summary;
    Alcotest.test_case "invalid create" `Quick test_invalid_create;
  ]
