module Sim = Bamboo_sim.Sim
module Machine = Bamboo_sim.Machine
module Netmodel = Bamboo_sim.Netmodel
module Rng = Bamboo_util.Rng

let test_event_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:3.0 (fun () -> log := "c" :: !log);
  Sim.schedule sim ~delay:1.0 (fun () -> log := "a" :: !log);
  Sim.schedule sim ~delay:2.0 (fun () -> log := "b" :: !log);
  Sim.run_to_completion sim;
  Alcotest.(check (list string)) "timestamp order" [ "a"; "b"; "c" ]
    (List.rev !log)

let test_same_time_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.schedule sim ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Sim.run_to_completion sim;
  Alcotest.(check (list int)) "FIFO at equal timestamps" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_clock_advances () =
  let sim = Sim.create () in
  let seen = ref 0.0 in
  Sim.schedule sim ~delay:2.5 (fun () -> seen := Sim.now sim);
  Sim.run_to_completion sim;
  Alcotest.(check (float 1e-12)) "clock at event" 2.5 !seen

let test_nested_scheduling () =
  let sim = Sim.create () in
  let times = ref [] in
  Sim.schedule sim ~delay:1.0 (fun () ->
      times := Sim.now sim :: !times;
      Sim.schedule sim ~delay:1.0 (fun () -> times := Sim.now sim :: !times));
  Sim.run_to_completion sim;
  Alcotest.(check (list (float 1e-12))) "chained" [ 1.0; 2.0 ] (List.rev !times)

let test_run_until_horizon () =
  let sim = Sim.create () in
  let fired = ref [] in
  List.iter
    (fun d -> Sim.schedule sim ~delay:d (fun () -> fired := d :: !fired))
    [ 1.0; 2.0; 3.0; 4.0 ];
  Sim.run_until sim 2.5;
  Alcotest.(check (list (float 0.0))) "only before horizon" [ 1.0; 2.0 ]
    (List.rev !fired);
  Alcotest.(check (float 1e-12)) "clock at horizon" 2.5 (Sim.now sim);
  Alcotest.(check int) "pending" 2 (Sim.pending sim);
  Sim.run_until sim 10.0;
  Alcotest.(check int) "drained" 0 (Sim.pending sim)

let test_negative_delay_clamped () =
  let sim = Sim.create () in
  Sim.schedule sim ~delay:1.0 (fun () ->
      Sim.schedule sim ~delay:(-5.0) (fun () ->
          Alcotest.(check (float 1e-12)) "clamped to now" 1.0 (Sim.now sim)));
  Sim.run_to_completion sim

let test_event_budget () =
  let sim = Sim.create () in
  let rec forever () = Sim.schedule sim ~delay:0.001 forever in
  forever ();
  match Sim.run_to_completion ~max_events:100 sim with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "expected budget failure"

(* One typed event, allocated once: the simulator's message-path hops
   are events of this kind, re-posted at each stage. *)
type Sim.event += Tick

let test_typed_event_words () =
  let sim = Sim.create () in
  let remaining = ref 0 in
  Sim.set_handler sim
    ~fire:(function
      | Tick ->
          decr remaining;
          if !remaining > 0 then Sim.post sim ~delay:0.001 Tick
      | _ -> ())
    ~delivery:(fun _ -> None);
  let n = 100_000 in
  let words =
    Helpers.alloc_delta (fun () ->
        remaining := n;
        Sim.post sim ~delay:0.001 Tick;
        Sim.run_until sim infinity)
  in
  Alcotest.(check int) "all fired" n (Sim.fired sim);
  (* In the dev profile (-opaque) the 4 words are two float boxes: the
     absolute time [post] hands to [post_at], and the clock stored into
     the simulator's mixed record when the event fires. *)
  Alcotest.(check (float 0.01)) "minor words per schedule-and-fire" 4.0
    (words /. float_of_int n)

(* --- machine model --- *)

let test_cpu_fifo_queueing () =
  let m = Machine.create ~bandwidth:1e9 in
  let a = Machine.admit m `Cpu ~now:0.0 ~duration:1.0 in
  let b = Machine.admit m `Cpu ~now:0.0 ~duration:2.0 in
  Alcotest.(check (list (pair string (float 1e-9))))
    "serialized service"
    [ ("a", 1.0); ("b", 3.0) ]
    [ ("a", a); ("b", b) ];
  Alcotest.(check (float 1e-9)) "busy seconds" 3.0 (Machine.busy_seconds m `Cpu);
  Alcotest.(check int) "both queued" 2 (Machine.queue_depth m `Cpu);
  Machine.release m `Cpu;
  Alcotest.(check int) "one released" 1 (Machine.queue_depth m `Cpu);
  Alcotest.(check int) "peak" 2 (Machine.peak_depth m `Cpu)

let test_cpu_idle_gap () =
  let m = Machine.create ~bandwidth:1e9 in
  ignore (Machine.admit m `Cpu ~now:0.0 ~duration:1.0);
  let t = Machine.admit m `Cpu ~now:5.0 ~duration:1.0 in
  Alcotest.(check (float 1e-9)) "restarts after idle" 6.0 t

let test_nic_bandwidth () =
  let m = Machine.create ~bandwidth:1000.0 in
  let t =
    Machine.admit m `Nic_out ~now:0.0 ~duration:(Machine.wire_time m ~bytes:500)
  in
  Alcotest.(check (float 1e-9)) "bytes/bandwidth" 0.5 t

let test_nic_in_out_independent () =
  let m = Machine.create ~bandwidth:1000.0 in
  let wire = Machine.wire_time m ~bytes:1000 in
  let finish =
    [
      Machine.admit m `Nic_out ~now:0.0 ~duration:wire;
      Machine.admit m `Nic_in ~now:0.0 ~duration:wire;
    ]
  in
  (* Full duplex: both complete at 1.0, not serialized to 2.0. *)
  List.iter
    (fun t -> Alcotest.(check (float 1e-9)) "parallel duplex" 1.0 t)
    finish

let test_zero_duration_work () =
  let m = Machine.create ~bandwidth:1e9 in
  ignore (Machine.admit m `Cpu ~now:0.0 ~duration:1.0);
  (* Zero work still waits its FIFO turn. *)
  Alcotest.(check (float 1e-9)) "zero work completes" 1.0
    (Machine.admit m `Cpu ~now:0.0 ~duration:0.0)

let test_machine_invalid () =
  Alcotest.check_raises "bad bandwidth"
    (Invalid_argument "Machine.create: bandwidth must be positive") (fun () ->
      ignore (Machine.create ~bandwidth:0.0));
  let m = Machine.create ~bandwidth:1.0 in
  Alcotest.check_raises "negative cpu"
    (Invalid_argument "Machine.admit: negative duration") (fun () ->
      ignore (Machine.admit m `Cpu ~now:0.0 ~duration:(-1.0)))

(* --- network model --- *)

let test_netmodel_statistics () =
  let rng = Rng.create ~seed:3 in
  let net = Netmodel.create ~rng ~mu:0.005 ~sigma:0.001 () in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let d = Netmodel.one_way net ~now:0.0 ~src:0 ~dst:1 in
    if d < 0.0 then Alcotest.fail "negative delay";
    sum := !sum +. d
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near mu" true (Float.abs (mean -. 0.005) < 0.0002)

let test_netmodel_extra_delay () =
  let rng = Rng.create ~seed:4 in
  let net = Netmodel.create ~rng ~mu:0.001 ~sigma:0.0 () in
  Netmodel.set_extra_delay net ~mu:0.010 ~sigma:0.0;
  let d = Netmodel.one_way net ~now:0.0 ~src:0 ~dst:1 in
  Alcotest.(check (float 1e-9)) "base + extra" 0.011 d;
  Alcotest.(check (float 1e-9)) "mean accessor" 0.011 (Netmodel.mean_one_way net)

let test_netmodel_fluctuation_window () =
  let rng = Rng.create ~seed:5 in
  let net = Netmodel.create ~rng ~mu:0.001 ~sigma:0.0 () in
  Netmodel.set_fluctuation net ~from_t:10.0 ~until_t:20.0 ~lo:0.05 ~hi:0.1;
  let inside = Netmodel.one_way net ~now:15.0 ~src:0 ~dst:1 in
  Alcotest.(check bool) "inside window" true (inside >= 0.05 && inside < 0.1);
  let before = Netmodel.one_way net ~now:5.0 ~src:0 ~dst:1 in
  Alcotest.(check (float 1e-9)) "before window" 0.001 before;
  let after = Netmodel.one_way net ~now:25.0 ~src:0 ~dst:1 in
  Alcotest.(check (float 1e-9)) "after window" 0.001 after;
  Netmodel.clear_fluctuation net;
  let cleared = Netmodel.one_way net ~now:15.0 ~src:0 ~dst:1 in
  Alcotest.(check (float 1e-9)) "cleared" 0.001 cleared

let test_client_rtt () =
  let rng = Rng.create ~seed:6 in
  let net = Netmodel.create ~rng ~mu:0.002 ~sigma:0.0 () in
  Alcotest.(check (float 1e-9)) "2x one-way" 0.004 (Netmodel.client_rtt net ~now:0.0)

(* Satellite regression: the fluctuation window replaces only the *base*
   draw; the configured extra delay must still add on top. *)
let test_netmodel_fluctuation_composes_with_extra () =
  let rng = Rng.create ~seed:7 in
  let net = Netmodel.create ~rng ~mu:0.001 ~sigma:0.0 () in
  Netmodel.set_extra_delay net ~mu:0.010 ~sigma:0.0;
  Netmodel.set_fluctuation net ~from_t:0.0 ~until_t:10.0 ~lo:0.05 ~hi:0.05;
  (* lo = hi pins the uniform draw: window 50 ms + extra 10 ms. *)
  let d = Netmodel.one_way net ~now:5.0 ~src:0 ~dst:1 in
  Alcotest.(check (float 1e-9)) "window + extra" 0.060 d;
  let outside = Netmodel.one_way net ~now:15.0 ~src:0 ~dst:1 in
  Alcotest.(check (float 1e-9)) "base + extra outside" 0.011 outside

let test_netmodel_per_link_effects () =
  let rng = Rng.create ~seed:8 in
  let net = Netmodel.create ~rng ~mu:0.001 ~sigma:0.0 () in
  let erng = Rng.create ~seed:9 in
  let eff =
    Netmodel.effect ~rng:erng
      (Netmodel.Extra_delay { mu = 0.020; sigma = 0.0 })
  in
  Netmodel.attach net ~src:0 ~dst:1 eff;
  (* Only the ordered pair (0,1) is affected. *)
  Alcotest.(check (float 1e-9)) "faulted link" 0.021
    (Netmodel.one_way net ~now:0.0 ~src:0 ~dst:1);
  Alcotest.(check (float 1e-9)) "reverse direction clean" 0.001
    (Netmodel.one_way net ~now:0.0 ~src:1 ~dst:0);
  Alcotest.(check (float 1e-9)) "other link clean" 0.001
    (Netmodel.one_way net ~now:0.0 ~src:2 ~dst:3);
  Netmodel.detach net ~src:0 ~dst:1 eff;
  Alcotest.(check (float 1e-9)) "detached" 0.001
    (Netmodel.one_way net ~now:0.0 ~src:0 ~dst:1)

let test_netmodel_block_counted () =
  let rng = Rng.create ~seed:10 in
  let net = Netmodel.create ~rng ~mu:0.001 ~sigma:0.0 () in
  Alcotest.(check bool) "initially open" false (Netmodel.blocked net ~src:0 ~dst:1);
  Netmodel.block net ~src:0 ~dst:1;
  Netmodel.block net ~src:0 ~dst:1;
  Alcotest.(check bool) "blocked" true (Netmodel.blocked net ~src:0 ~dst:1);
  Netmodel.unblock net ~src:0 ~dst:1;
  Alcotest.(check bool) "still blocked under overlap" true
    (Netmodel.blocked net ~src:0 ~dst:1);
  Netmodel.unblock net ~src:0 ~dst:1;
  Alcotest.(check bool) "healed" false (Netmodel.blocked net ~src:0 ~dst:1);
  (* One-directional: the reverse link was never blocked. *)
  Netmodel.block net ~src:2 ~dst:3;
  Alcotest.(check bool) "reverse open" false (Netmodel.blocked net ~src:3 ~dst:2)

let test_netmodel_drop_and_duplicate () =
  let rng = Rng.create ~seed:11 in
  let net = Netmodel.create ~rng ~mu:0.001 ~sigma:0.0 () in
  let drop = Netmodel.effect ~rng:(Rng.create ~seed:12) (Netmodel.Drop 0.5) in
  Netmodel.attach net ~src:0 ~dst:1 drop;
  let drops = ref 0 in
  for _ = 1 to 1000 do
    if Netmodel.link_drops net ~src:0 ~dst:1 then incr drops
  done;
  Alcotest.(check bool) "drop rate near 0.5" true
    (!drops > 400 && !drops < 600);
  Alcotest.(check bool) "other links lossless" false
    (Netmodel.link_drops net ~src:1 ~dst:0);
  let dup =
    Netmodel.effect ~rng:(Rng.create ~seed:13) (Netmodel.Duplicate 0.5)
  in
  Netmodel.attach net ~src:2 ~dst:3 dup;
  let copies = ref 0 in
  for _ = 1 to 1000 do
    copies := !copies + List.length (Netmodel.link_copies net ~src:2 ~dst:3)
  done;
  Alcotest.(check bool) "duplicate rate near 0.5" true
    (!copies > 400 && !copies < 600)

(* Effects carry their own RNG stream: sampling them must not advance the
   model's base stream. *)
let test_netmodel_effects_preserve_base_stream () =
  let sample ~faulted =
    let rng = Rng.create ~seed:14 in
    let net = Netmodel.create ~rng ~mu:0.005 ~sigma:0.001 () in
    if faulted then begin
      let eff =
        Netmodel.effect ~rng:(Rng.create ~seed:15)
          (Netmodel.Spike { lo = 0.001; hi = 0.002 })
      in
      Netmodel.attach net ~src:0 ~dst:1 eff
    end;
    (* Draw on a *different* link, then on the faulted one. *)
    let clean = Netmodel.one_way net ~now:0.0 ~src:2 ~dst:3 in
    let faulted_draw = Netmodel.one_way net ~now:0.0 ~src:0 ~dst:1 in
    let clean2 = Netmodel.one_way net ~now:0.0 ~src:3 ~dst:2 in
    (clean, faulted_draw, clean2)
  in
  let c1, f1, c1' = sample ~faulted:false in
  let c2, f2, c2' = sample ~faulted:true in
  Alcotest.(check (float 0.0)) "clean link identical" c1 c2;
  Alcotest.(check (float 0.0)) "clean link after faulted draw identical" c1' c2';
  Alcotest.(check bool) "faulted link delayed" true (f2 > f1)

(* The monomorphic event queue against a sorted-list oracle: random delays
   drawn from a coarse grid (so equal timestamps are common) must fire in
   (time, insertion order). Some events schedule a follow-up when they
   fire, so pushes and pops interleave as in the machine queues, and up
   to 600 initial events take the queue to several hundred entries. The
   oracle keeps pending events in a list sorted by (time, scheduling
   order): a new event goes after every event not later than it. *)
let firing_order_prop =
  let open QCheck in
  Test.make ~name:"events fire in stable (time, insertion) order" ~count:200
    (list_of_size (Gen.int_range 0 600) (pair (int_range 0 15) (int_range (-1) 15)))
    (fun events ->
      let n = List.length events in
      let delay g = float_of_int g /. 4.0 in
      (* Event [i < n] is initial; event [n + i] is the follow-up that
         event [i] schedules, [follow.(i)] grid steps after it fires,
         when [follow.(i) >= 0]. *)
      let follow = Array.of_list (List.map snd events) in
      let sim = Sim.create () in
      let fired = ref [] in
      let rec fire i () =
        fired := i :: !fired;
        if i < n && follow.(i) >= 0 then
          Sim.schedule sim ~delay:(delay follow.(i)) (fire (n + i))
      in
      List.iteri (fun i (g, _) -> Sim.schedule sim ~delay:(delay g) (fire i)) events;
      Sim.run_to_completion sim;
      let rec insert ((at, _) as e) = function
        | ((at', _) as e') :: rest when at' <= at -> e' :: insert e rest
        | rest -> e :: rest
      in
      let rec oracle acc = function
        | [] -> List.rev acc
        | (at, i) :: rest ->
            let rest =
              if i < n && follow.(i) >= 0 then
                insert (at +. delay follow.(i), n + i) rest
              else rest
            in
            oracle (i :: acc) rest
      in
      let initial =
        List.fold_left (fun q (i, (g, _)) -> insert (delay g, i) q) []
          (List.mapi (fun i e -> (i, e)) events)
      in
      List.rev !fired = oracle [] initial)

let suite =
  [
    Alcotest.test_case "event ordering" `Quick test_event_ordering;
    QCheck_alcotest.to_alcotest firing_order_prop;
    Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
    Alcotest.test_case "clock advances" `Quick test_clock_advances;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "run_until horizon" `Quick test_run_until_horizon;
    Alcotest.test_case "negative delay clamped" `Quick test_negative_delay_clamped;
    Alcotest.test_case "event budget" `Quick test_event_budget;
    Alcotest.test_case "typed event words" `Quick test_typed_event_words;
    Alcotest.test_case "cpu FIFO" `Quick test_cpu_fifo_queueing;
    Alcotest.test_case "cpu idle gap" `Quick test_cpu_idle_gap;
    Alcotest.test_case "nic bandwidth" `Quick test_nic_bandwidth;
    Alcotest.test_case "nic duplex" `Quick test_nic_in_out_independent;
    Alcotest.test_case "zero-duration work" `Quick test_zero_duration_work;
    Alcotest.test_case "machine invalid args" `Quick test_machine_invalid;
    Alcotest.test_case "netmodel statistics" `Quick test_netmodel_statistics;
    Alcotest.test_case "netmodel extra delay" `Quick test_netmodel_extra_delay;
    Alcotest.test_case "netmodel fluctuation" `Quick test_netmodel_fluctuation_window;
    Alcotest.test_case "client rtt" `Quick test_client_rtt;
    Alcotest.test_case "fluctuation composes with extra delay" `Quick
      test_netmodel_fluctuation_composes_with_extra;
    Alcotest.test_case "per-link effects" `Quick test_netmodel_per_link_effects;
    Alcotest.test_case "counted blocking" `Quick test_netmodel_block_counted;
    Alcotest.test_case "link drop/duplicate" `Quick
      test_netmodel_drop_and_duplicate;
    Alcotest.test_case "effects preserve base stream" `Quick
      test_netmodel_effects_preserve_base_stream;
  ]
