module Config = Bamboo.Config
module Runtime = Bamboo.Runtime
module Workload = Bamboo.Workload
module Sim = Bamboo_sim.Sim
module Trace = Bamboo_obs.Trace
module Scenario = Bamboo_check.Scenario
module Monitor = Bamboo_check.Monitor
module Fuzz = Bamboo_check.Fuzz

type ident = { i_src : int; i_dst : int; i_note : string }

let ident_of (c : Sim.candidate) =
  { i_src = c.Sim.c_src; i_dst = c.Sim.c_dst; i_note = c.Sim.c_note }

type forced = { f_choice : int; f_sleep : ident list }

type view = {
  v_now : float;
  v_index : int;
  v_fingerprint : string;
  v_candidates : Sim.candidate array;
  v_asleep : bool array;
}

type decision = {
  d_now : float;
  d_fingerprint : string;
  d_candidates : Sim.candidate array;
  d_asleep : bool array;
  d_choice : int;
}

type stop = Horizon | Depth | All_asleep

type outcome = {
  o_decisions : decision list;
  o_tail : int list;
  o_stop : stop;
  o_verdict : Fuzz.verdict;
  o_sim_decisions : int;
}

(* Explore cells run without client load (rate 0, so blocks are empty and
   the protocol state space is pure consensus), with deterministic network
   delays (sigma 0: every delivery of one broadcast lands at the same
   instant, which is exactly what makes the commutativity window group
   them into decisions) and no machine contention to model — the runtime's
   controlled mode abstracts the pipelines away regardless. *)
let scenario ?(faults = []) ~protocol ~n ~byz_no
    ~strategy ~horizon ~timeout () =
  let config =
    {
      Config.default with
      Config.protocol;
      n;
      byz_no;
      strategy;
      faults;
      timeout;
      backoff = 1.0;
      runtime = horizon;
      warmup = 0.0;
      mu = 0.001;
      sigma = 0.0;
      extra_delay_mu = 0.0;
      extra_delay_sigma = 0.0;
      loss = 0.0;
      seed = 0;
      jobs = 1;
      probe_interval = 0.0;
    }
  in
  match Config.validate config with
  | Ok config -> { Scenario.label = "explore"; rate = 0.0; config }
  | Error e -> invalid_arg ("Scheduler.scenario: " ^ e)

(* Matches the fuzzer's ring size; explore cells are far smaller. *)
let trace_capacity = 1 lsl 20

let run ?wrap ?opts ?(fingerprint = true) ?(explore_after = 0.0) ~window
    ~max_decisions ~prefix ~pick (s : Scenario.t) =
  let trace = Trace.ring ~capacity:trace_capacity in
  (* The sleep set, evolved along this one execution: identities whose
     delivery is provably covered by an already-explored sibling branch.
     Seeded by the [f_sleep] additions of forced prefix entries; an entry
     wakes (leaves the set) when any event executes at its destination
     replica, because such events do not commute with it. *)
  let sleep : (ident, unit) Hashtbl.t = Hashtbl.create 64 in
  let forced = ref prefix in
  (* [max_decisions] bounds the absolute tree depth, so forced prefix
     entries count against it: a run spawned at depth k records at most
     [max_decisions - k] further decisions. *)
  let depth_budget = max_decisions - List.length prefix in
  let recorded = ref [] in
  let nrec = ref 0 in
  let tail = ref [] in
  let stop = ref Horizon in
  let recording = ref true in
  let sv_ref = ref None in
  let scheduler sv =
    sv_ref := Some sv;
    let choose ~now arr =
      (* Decisions before [explore_after] take the natural order and are
         not recorded (and consume no forced choices), so the whole
         branching budget concentrates on the scoped time range — e.g.
         the boundary of an injected partition. *)
      if now < explore_after then 0
      else
        match !forced with
      | f :: rest ->
          forced := rest;
          List.iter (fun i -> Hashtbl.replace sleep i ()) f.f_sleep;
          if f.f_choice >= 0 && f.f_choice < Array.length arr then f.f_choice
          else 0
      | [] ->
          if not !recording then begin
            tail := 0 :: !tail;
            0
          end
          else if !nrec >= depth_budget then begin
            recording := false;
            stop := Depth;
            tail := [ 0 ];
            0
          end
          else begin
            let asleep =
              Array.map (fun c -> Hashtbl.mem sleep (ident_of c)) arr
            in
            if Array.for_all Fun.id asleep then begin
              (* Every candidate is covered by an explored sibling: the
                 whole subtree from here is redundant. *)
              recording := false;
              stop := All_asleep;
              tail := [ 0 ];
              0
            end
            else begin
              let fp =
                if not fingerprint then ""
                else
                  match !sv_ref with
                  | None -> ""
                  | Some sv ->
                      Statehash.fingerprint ~nodes:sv.Runtime.sv_nodes
                        ~inflight:(Sim.pending_deliveries sv.Runtime.sv_sim)
                        ~timers:(sv.Runtime.sv_timers ()) ~now
              in
              let v =
                {
                  v_now = now;
                  v_index = !nrec;
                  v_fingerprint = fp;
                  v_candidates = arr;
                  v_asleep = asleep;
                }
              in
              let k = pick v in
              let k = if k >= 0 && k < Array.length arr then k else 0 in
              recorded :=
                {
                  d_now = now;
                  d_fingerprint = fp;
                  d_candidates = arr;
                  d_asleep = asleep;
                  d_choice = k;
                }
                :: !recorded;
              incr nrec;
              k
            end
          end
    in
    let on_exec e =
      let replica =
        match e with
        | Runtime.Exec_deliver { dst; _ } -> dst
        | Runtime.Exec_timer { replica } -> replica
      in
      (* Collecting the woken identities before removal is
         order-insensitive: the same set leaves the table whatever order
         the buckets are visited in. *)
      let[@lint.allow "no-order-leak"] woken =
        Hashtbl.fold
          (fun i () acc -> if i.i_dst = replica then i :: acc else acc)
          sleep []
      in
      List.iter (Hashtbl.remove sleep) woken
    in
    {
      Runtime.sh_controller = { Sim.window; choose };
      sh_on_exec = on_exec;
    }
  in
  let result =
    Runtime.run ~config:s.Scenario.config
      ~workload:(Workload.open_loop ~rate:s.Scenario.rate ())
      ~trace ?wrap_safety:wrap ~scheduler ()
  in
  let events = Trace.events trace in
  let report =
    Monitor.evaluate ?opts ~config:s.Scenario.config ~result ~events ()
  in
  let sim_decisions =
    match !sv_ref with None -> 0 | Some sv -> Sim.decisions sv.Runtime.sv_sim
  in
  {
    o_decisions = List.rev !recorded;
    o_tail = List.rev !tail;
    o_stop = !stop;
    o_verdict = { Fuzz.scenario = s; report };
    o_sim_decisions = sim_decisions;
  }

let replay ?wrap ?opts ?explore_after ~window ~choices s =
  run ?wrap ?opts ~fingerprint:false ?explore_after ~window ~max_decisions:0
    ~prefix:(List.map (fun c -> { f_choice = c; f_sleep = [] }) choices)
    ~pick:(fun _ -> 0)
    s

let choices_of ~prefix outcome =
  List.map (fun f -> f.f_choice) prefix
  @ List.map (fun d -> d.d_choice) outcome.o_decisions
  @ outcome.o_tail
