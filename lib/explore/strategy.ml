module Config = Bamboo.Config
module Scenario = Bamboo_check.Scenario
module Monitor = Bamboo_check.Monitor
module Fuzz = Bamboo_check.Fuzz
module Pool = Bamboo_util.Pool
module Rng = Bamboo_util.Rng
module Json = Bamboo_util.Json

type stats = {
  runs : int;
  states : int;
  decisions : int;
  pruned_sleep : int;
  pruned_visited : int;
  sleep_stops : int;
  frontier_peak : int;
  exhausted : bool;
}

type counterexample = {
  c_minimized : Fuzz.minimized;
  c_strategy : string;
  c_window : float;
  c_explore_after : float;
  c_choices : int list;
  c_shrink_runs : int;
}

(* --- schedule shrinking --- *)

(* Trailing zeros are free to drop without a replay: a forced 0 and the
   tail mode's default 0 are the same choice. *)
let rec drop_trailing_zeros = function
  | [] -> []
  | cs -> (
      match List.rev cs with
      | 0 :: rev -> drop_trailing_zeros (List.rev rev)
      | _ -> cs)

(* Greedy minimization of a failing schedule, mirroring the fuzzer's
   shrinker: truncate choices from the end, zero the survivors, shorten
   the horizon, to a three-round fixpoint. Every kept candidate still
   violates the same invariant under single-threaded replay, so the final
   artifact is a confirmed reproducer. *)
let shrink_schedule ?wrap ?opts ?explore_after ~window ~invariant
    (s : Scenario.t) choices =
  let runs = ref 0 in
  let fails (sc : Scenario.t) cs =
    incr runs;
    let o =
      Scheduler.replay ?wrap ?opts ?explore_after ~window ~choices:cs sc
    in
    List.find_opt
      (fun (viol : Monitor.violation) -> viol.Monitor.invariant = invariant)
      o.Scheduler.o_verdict.Fuzz.report.Monitor.violations
  in
  let truncate (sc, cs) =
    let rec go cs =
      match drop_trailing_zeros cs with
      | [] -> []
      | cs -> (
          let shorter = List.filteri (fun i _ -> i < List.length cs - 1) cs in
          match fails sc shorter with
          | Some _ -> go shorter
          | None -> cs)
    in
    (sc, go cs)
  in
  let zero (sc, cs) =
    let arr = Array.of_list cs in
    Array.iteri
      (fun i c ->
        if c <> 0 then begin
          arr.(i) <- 0;
          match fails sc (Array.to_list arr) with
          | Some _ -> ()
          | None -> arr.(i) <- c
        end)
      arr;
    (sc, Array.to_list arr)
  in
  let shorten ((sc : Scenario.t), cs) =
    let rec go (sc : Scenario.t) =
      let c = sc.Scenario.config in
      let runtime = Float.max 0.05 (c.Config.runtime *. 0.6) in
      if runtime >= c.Config.runtime then sc
      else
        let cand = { sc with Scenario.config = { c with Config.runtime = runtime } } in
        match Config.validate cand.Scenario.config with
        | Error _ -> sc
        | Ok _ -> (
            match fails cand cs with Some _ -> go cand | None -> sc)
    in
    (go sc, cs)
  in
  let round x = shorten (zero (truncate x)) in
  let rec fixpoint i ((sc : Scenario.t), cs) =
    let ((sc' : Scenario.t), cs') = round (sc, cs) in
    if
      i >= 3
      || (List.equal Int.equal cs cs'
         && Float.equal sc.Scenario.config.Config.runtime
              sc'.Scenario.config.Config.runtime)
    then (sc', cs')
    else fixpoint (i + 1) (sc', cs')
  in
  let sc, cs = fixpoint 0 (s, drop_trailing_zeros choices) in
  let detail =
    match fails sc cs with
    | Some viol -> viol.Monitor.detail
    | None -> assert false (* every kept candidate fails by construction *)
  in
  ( {
      Fuzz.scenario = sc;
      invariant;
      detail;
      runs = !runs;
    },
    cs )

let make_counterexample ?wrap ?opts ?(explore_after = 0.0) ~strategy ~window
    (s : Scenario.t) ~prefix outcome =
  let invariant =
    match
      outcome.Scheduler.o_verdict.Fuzz.report.Monitor.violations
    with
    | [] -> invalid_arg "Strategy: outcome has no violation"
    | viol :: _ -> viol.Monitor.invariant
  in
  let choices = Scheduler.choices_of ~prefix outcome in
  let minimized, choices =
    shrink_schedule ?wrap ?opts ~explore_after ~window ~invariant s choices
  in
  {
    c_minimized = minimized;
    c_strategy = strategy;
    c_window = window;
    c_explore_after = explore_after;
    c_choices = choices;
    c_shrink_runs = minimized.Fuzz.runs;
  }

(* --- exhaustive DFS with sleep sets and state hashing --- *)

let dfs ?wrap ?opts ?(por = true)
    ?(explore_after = 0.0) ~window ~max_decisions ~max_runs ~jobs
    (s : Scenario.t) =
  let visited : (string, unit) Hashtbl.t = Hashtbl.create 4096 in
  let runs = ref 0 in
  let states = ref 0 in
  let decisions = ref 0 in
  let pruned_sleep = ref 0 in
  let pruned_visited = ref 0 in
  let sleep_stops = ref 0 in
  let frontier_peak = ref 1 in
  let failure = ref None in
  let frontier = ref [ [] ] in
  (* Waves: the whole frontier runs in parallel (each task is one
     independent re-execution), then the results merge sequentially in
     submission order. The visited set and sibling spawning live entirely
     in the merge step, so state counts, prune tallies and the chosen
     counterexample are byte-identical at any [jobs]. *)
  while !frontier <> [] && !runs < max_runs do
    let budget = max_runs - !runs in
    let wave, rest =
      if List.length !frontier <= budget then (!frontier, [])
      else
        ( List.filteri (fun i _ -> i < budget) !frontier,
          List.filteri (fun i _ -> i >= budget) !frontier )
    in
    let outcomes =
      Pool.map ~jobs
        (fun prefix ->
          (* POR-off is the brute-force baseline: no state hashing, no
             sleep sets — so skip the per-decision fingerprint cost too. *)
          Scheduler.run ?wrap ?opts ~fingerprint:por ~explore_after ~window
            ~max_decisions ~prefix
            ~pick:(fun _ -> 0)
            s)
        wave
    in
    let children = ref [] in
    List.iter2
      (fun prefix (outcome : Scheduler.outcome) ->
        incr runs;
        decisions := !decisions + List.length outcome.Scheduler.o_decisions;
        (match outcome.Scheduler.o_stop with
        | Scheduler.All_asleep -> incr sleep_stops
        | Scheduler.Horizon | Scheduler.Depth -> ());
        if Fuzz.failed outcome.Scheduler.o_verdict && Option.is_none !failure
        then failure := Some (prefix, outcome);
        (* Walk the recorded decisions, spawning unexplored siblings;
           truncate at the first already-visited state — the run that
           claimed it spawns the equivalent siblings. *)
        let rec walk rev_forced = function
          | [] -> ()
          | (d : Scheduler.decision) :: tail_ds ->
              if por && Hashtbl.mem visited d.Scheduler.d_fingerprint then
                incr pruned_visited
              else begin
                if por then Hashtbl.replace visited d.Scheduler.d_fingerprint ();
                incr states;
                let cands = d.Scheduler.d_candidates in
                let chosen = Scheduler.ident_of cands.(d.Scheduler.d_choice) in
                let explored = ref [ chosen ] in
                Array.iteri
                  (fun j c ->
                    if j <> d.Scheduler.d_choice then begin
                      if por && d.Scheduler.d_asleep.(j) then
                        incr pruned_sleep
                      else begin
                        let f_sleep =
                          if por then List.rev !explored else []
                        in
                        let forced =
                          { Scheduler.f_choice = j; f_sleep }
                        in
                        children :=
                          List.rev (forced :: rev_forced) :: !children;
                        explored := Scheduler.ident_of c :: !explored
                      end
                    end)
                  cands;
                walk
                  ({ Scheduler.f_choice = d.Scheduler.d_choice; f_sleep = [] }
                  :: rev_forced)
                  tail_ds
              end
        in
        walk (List.rev prefix) outcome.Scheduler.o_decisions)
      wave outcomes;
    frontier := rest @ List.rev !children;
    if List.length !frontier > !frontier_peak then
      frontier_peak := List.length !frontier
  done;
  let stats =
    {
      runs = !runs;
      states = !states;
      decisions = !decisions;
      pruned_sleep = !pruned_sleep;
      pruned_visited = !pruned_visited;
      sleep_stops = !sleep_stops;
      frontier_peak = !frontier_peak;
      exhausted = !frontier = [];
    }
  in
  let cex =
    Option.map
      (fun (prefix, outcome) ->
        make_counterexample ?wrap ?opts ~explore_after ~strategy:"dfs"
          ~window s ~prefix outcome)
      !failure
  in
  (stats, cex)

(* --- PCT-style randomized priority schedules --- *)

(* Seeded exactly like [Scenario.generate]: run [index] is a pure function
   of [(root_seed, index)], so a sweep explores the same schedules at any
   job count. *)
let pct_seed ~root_seed ~index = (root_seed * 1_000_003) + (index * 7919)

let pct ?wrap ?opts ?(explore_after = 0.0) ~window
    ~max_decisions ~max_runs ~d ~root_seed ~jobs (s : Scenario.t) =
  let n = s.Scenario.config.Config.n in
  let outcomes =
    Pool.map ~jobs
      (fun index ->
        let rng = Rng.create ~seed:(pct_seed ~root_seed ~index) in
        (* Distinct per-replica priorities (higher wins); at each of [d]
           priority-change points the winning destination drops below
           everything seen so far, forcing a schedule perturbation. *)
        let prio = Array.init n (fun i -> float_of_int i) in
        Rng.shuffle rng prio;
        let floor = ref (-1.0) in
        let change = Array.make (max 1 max_decisions) false in
        for _ = 1 to d do
          change.(Rng.int rng (max 1 max_decisions)) <- true
        done;
        let pick (v : Scheduler.view) =
          let best = ref 0 in
          Array.iteri
            (fun j (c : Bamboo_sim.Sim.candidate) ->
              if
                prio.(c.Bamboo_sim.Sim.c_dst)
                > prio.(v.Scheduler.v_candidates.(!best).Bamboo_sim.Sim.c_dst)
              then best := j)
            v.Scheduler.v_candidates;
          if
            v.Scheduler.v_index < Array.length change
            && change.(v.Scheduler.v_index)
          then begin
            let dst = v.Scheduler.v_candidates.(!best).Bamboo_sim.Sim.c_dst in
            floor := !floor -. 1.0;
            prio.(dst) <- !floor
          end;
          !best
        in
        Scheduler.run ?wrap ?opts ~fingerprint:false ~explore_after ~window
          ~max_decisions ~prefix:[] ~pick s)
      (List.init max_runs Fun.id)
  in
  let decisions =
    List.fold_left
      (fun acc (o : Scheduler.outcome) ->
        acc + List.length o.Scheduler.o_decisions)
      0 outcomes
  in
  let failure =
    List.find_opt
      (fun (o : Scheduler.outcome) -> Fuzz.failed o.Scheduler.o_verdict)
      outcomes
  in
  let stats =
    {
      runs = List.length outcomes;
      states = 0;
      decisions;
      pruned_sleep = 0;
      pruned_visited = 0;
      sleep_stops = 0;
      frontier_peak = 0;
      exhausted = false;
    }
  in
  let cex =
    Option.map
      (fun outcome ->
        make_counterexample ?wrap ?opts ~explore_after ~strategy:"pct"
          ~window s ~prefix:[] outcome)
      failure
  in
  (stats, cex)

(* --- replayable counterexample artifacts --- *)

let counterexample_to_json (c : counterexample) =
  match Fuzz.artifact_to_json c.c_minimized with
  | Json.Obj fields ->
      Json.Obj
        (fields
        @ [
            ( "schedule",
              Json.Obj
                [
                  ("strategy", Json.String c.c_strategy);
                  ("window", Json.Float c.c_window);
                  ("exploreAfter", Json.Float c.c_explore_after);
                  ( "choices",
                    Json.List (List.map (fun i -> Json.Int i) c.c_choices) );
                ] );
          ])
  | _ -> assert false (* Fuzz.artifact_to_json always returns an object *)

type schedule = { window : float; explore_after : float; choices : int list }

let schedule_of_json json =
  match Json.member "schedule" json with
  | Json.Null -> Ok None
  | Json.Obj _ as sched -> (
      let window =
        match Json.member "window" sched with
        | Json.Float w -> Ok w
        | Json.Int w -> Ok (float_of_int w)
        | Json.Null -> Error "schedule: missing \"window\""
        | _ -> Error "schedule: \"window\" must be a number"
      in
      let explore_after =
        match Json.member "exploreAfter" sched with
        | Json.Float t -> Ok t
        | Json.Int t -> Ok (float_of_int t)
        | Json.Null -> Ok 0.0 (* absent in early artifacts *)
        | _ -> Error "schedule: \"exploreAfter\" must be a number"
      in
      match (window, explore_after) with
      | Error e, _ | _, Error e -> Error e
      | Ok window, Ok explore_after -> (
          match Json.member "choices" sched with
          | Json.List items -> (
              try
                Ok (Some { window; explore_after; choices = List.map Json.to_int items })
              with Invalid_argument _ ->
                Error "schedule: \"choices\" must be integers")
          | Json.Null -> Error "schedule: missing \"choices\""
          | _ -> Error "schedule: \"choices\" must be a list"))
  | _ -> Error "schedule must be a JSON object"
