module Trace = Bamboo_obs.Trace
module Schedule = Bamboo_faults.Schedule
module Runtime = Bamboo.Runtime
module Oracle = Bamboo.Agreement
module Config = Bamboo.Config
module Ids = Bamboo_types.Ids
module Json = Bamboo_util.Json

type invariant = Agreement | Cert_unique | Vote_safety | Liveness

let invariant_name = function
  | Agreement -> "agreement"
  | Cert_unique -> "cert_unique"
  | Vote_safety -> "vote_safety"
  | Liveness -> "liveness"

let invariant_of_name = function
  | "agreement" -> Ok Agreement
  | "cert_unique" -> Ok Cert_unique
  | "vote_safety" -> Ok Vote_safety
  | "liveness" -> Ok Liveness
  | s -> Error (Printf.sprintf "unknown invariant %S" s)

type violation = { invariant : invariant; detail : string }

type report = {
  violations : violation list;
  skipped : (invariant * string) list;
}

let pass r = r.violations = []

type opts = { recover_views : int }

let default_opts = { recover_views = 10 }

(* --- agreement --- *)

let check_agreement ?(show = Ids.short) ?(local_conflicts = [||])
    (verdict : Oracle.verdict) =
  let local i conflicted =
    if conflicted then
      [ Printf.sprintf "replica %d saw a commit conflict with its finalized prefix" i ]
    else []
  in
  let line = function
    | Oracle.Recommitted { replica; height; first; second } ->
        Printf.sprintf "replica %d re-committed height %d with a different block (%s then %s)"
          replica height (show first) (show second)
    | Oracle.Diverged { i; j; height; hash_i; hash_j } ->
        Printf.sprintf "replicas %d and %d committed different blocks at height %d (%s vs %s)"
          i j height (show hash_i) (show hash_j)
    | Oracle.Tx_order { i; j; upto } ->
        Printf.sprintf
          "replicas %d and %d agree on block hashes but diverge in committed tx order \
           over heights 1..%d"
          i j upto
  in
  List.map
    (fun detail -> { invariant = Agreement; detail })
    (List.concat (Array.to_list (Array.mapi local local_conflicts))
    @ List.map line verdict.Oracle.conflicts)

(* --- bounded liveness --- *)

(* The one liveness rule: some replica commits in [(after, until]]. *)
let commit_within ~after ~until events =
  List.exists
    (fun (e : Trace.event) ->
      e.kind = Trace.Commit && e.ts > after && e.ts <= until)
    events

(* Whether the scenario leaves the bounded-liveness guarantee meaningful:
   partial synchrony only promises progress once at most f replicas are
   faulty and message delays fall back under the timeout. Each disqualifier
   returns a reason so reports say why the check was vacuous. *)
let liveness_applicability ~(config : Config.t) =
  let n = config.Config.n in
  let f = (n - 1) / 3 in
  let runtime = config.Config.runtime in
  let timeout = config.Config.timeout in
  (* A fault that never heals inside the horizon is permanent for this
     run's purposes. *)
  let permanent (e : Schedule.entry) =
    match e.until with Some u -> u >= runtime | None -> true
  in
  let heal_of (e : Schedule.entry) =
    match e.until with Some u when u < runtime -> u | _ -> e.at
  in
  let crashed_forever =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun (e : Schedule.entry) ->
           match e.spec with
           | Schedule.Crash { node } when permanent e -> Some node
           | _ -> None)
         config.Config.faults)
  in
  let rec scan = function
    | [] -> Ok ()
    | (e : Schedule.entry) :: rest ->
        let bad reason = Error reason in
        if not (permanent e) then scan rest
        else begin
          match e.spec with
          | Schedule.Partition _ -> bad "permanent partition"
          | Schedule.Fluctuation { hi; _ } when hi >= 0.5 *. timeout ->
              bad "permanent delay fluctuation at the timeout scale"
          | Schedule.Link_delay { mu; _ } when mu >= 0.5 *. timeout ->
              bad "permanent link delay at the timeout scale"
          | Schedule.Link_spike { hi; _ } when hi >= 0.5 *. timeout ->
              bad "permanent delay spikes at the timeout scale"
          | Schedule.Link_loss { rate; _ } when rate > 0.3 ->
              bad "permanent heavy link loss"
          | _ -> scan rest
        end
  in
  if config.Config.byz_no + List.length crashed_forever > f then
    Error
      (Printf.sprintf "more than f=%d replicas permanently faulty (%d)" f
         (config.Config.byz_no + List.length crashed_forever))
  else if config.Config.backoff > 1.0 && config.Config.faults <> [] then
    Error "backoff timers make the view budget unbounded under faults"
  else
    match scan config.Config.faults with
    | Error _ as e -> e
    | Ok () ->
        let heal =
          List.fold_left
            (fun acc e -> Float.max acc (heal_of e))
            0.0 config.Config.faults
        in
        (* Clock skew stretches one replica's timers; scale the budget by
           the largest factor so a slow clock cannot fake a violation. *)
        let skew =
          List.fold_left
            (fun acc (e : Schedule.entry) ->
              match e.spec with
              | Schedule.Clock_skew { factor; _ } -> Float.max acc factor
              | _ -> acc)
            1.0 config.Config.faults
        in
        Ok (heal, skew)

let check_liveness ?(opts = default_opts) ~(config : Config.t) events =
  match liveness_applicability ~config with
  | Error reason -> Error reason
  | Ok (heal, skew) ->
      let budget =
        float_of_int opts.recover_views *. config.Config.timeout *. skew
      in
      let deadline = heal +. budget in
      if deadline > config.Config.runtime then
        Error
          (Printf.sprintf
             "horizon too short: last heal at %.2fs + %d-view budget ends \
              at %.2fs, past the %.2fs runtime"
             heal opts.recover_views deadline config.Config.runtime)
      else if commit_within ~after:heal ~until:deadline events then Ok []
      else
        Ok
          [
            {
              invariant = Liveness;
              detail =
                Printf.sprintf
                  "no commit within %d views (%.2fs) of the last heal at \
                   %.2fs"
                  opts.recover_views budget heal;
            };
          ]

(* --- hash-keyed trace checks (every plane) --- *)

(* Span ids are per-process counters, so these checks key on the block
   hash that both runtimes put in event [args]; events lacking the
   expected args are skipped rather than misread. *)

let restart_arg = ("restart", Json.Bool true)

let arg_string key (e : Trace.event) =
  match List.assoc_opt key e.args with
  | Some (Json.String s) -> Some s
  | Some _ | None -> None

let arg_int key (e : Trace.event) =
  match List.assoc_opt key e.args with
  | Some (Json.Int i) -> Some i
  | Some _ | None -> None

(* Certification, vote safety and [expect_commit_after] liveness in
   trace order; every Commit event feeds [oracle], if any. *)
let scan_trace ~byz_no ?expect_commit_after ?oracle events =
  let events = List.sort Trace.chronological events in
  let out = ref [] in
  let add invariant detail = out := { invariant; detail } :: !out in
  (* cert uniqueness: view -> certified hash from Qc_formed events. *)
  let certified : (int, string) Hashtbl.t = Hashtbl.create 256 in
  (* vote safety: (node, view) -> voted hash; node -> highest abandoned
     view. Only a process restart (a [Fault_heal] carrying [restart_arg])
     resets a node's vote state: the restarted replica lost its vote
     history and re-votes benignly while it catches up. Other heals
     (a simulated crash keeps its state; slow, clock skew) do not. *)
  let voted : (int * int, string) Hashtbl.t = Hashtbl.create 1024 in
  let abandoned : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let restart node =
    Hashtbl.remove abandoned node;
    (* Collecting dead keys into a list is order-insensitive: the same
       set is removed whatever order the buckets are visited in. *)
    let[@lint.allow "no-order-leak"] stale =
      Hashtbl.fold
        (fun (n, v) _ acc -> if n = node then (n, v) :: acc else acc)
        voted []
    in
    List.iter (Hashtbl.remove voted) stale
  in
  List.iter
    (fun (e : Trace.event) ->
      match e.kind with
      | Trace.Commit -> (
          match (oracle, arg_string "hash" e, arg_int "height" e) with
          | Some o, Some hash, Some height -> Oracle.commit_hash o ~replica:e.node ~height hash
          | _ -> ())
      | Trace.Qc_formed -> (
          match arg_string "hash" e with
          | None -> ()
          | Some hash -> (
              match Hashtbl.find_opt certified e.view with
              | None -> Hashtbl.add certified e.view hash
              | Some prev when String.equal prev hash -> ()
              | Some prev ->
                  Hashtbl.replace certified e.view hash;
                  add Cert_unique
                    (Printf.sprintf
                       "two different blocks certified in view %d (%s and %s)"
                       e.view prev hash)))
      | Trace.Timeout_fired ->
          if e.node >= byz_no then begin
            let prev =
              match Hashtbl.find_opt abandoned e.node with
              | None -> 0
              | Some v -> v
            in
            Hashtbl.replace abandoned e.node (max prev e.view)
          end
      | Trace.Vote_sent ->
          if e.node >= byz_no then begin
            (match Hashtbl.find_opt abandoned e.node with
            | Some av when e.view <= av ->
                add Vote_safety
                  (Printf.sprintf
                     "replica %d voted in view %d after abandoning view %d"
                     e.node e.view av)
            | Some _ | None -> ());
            match arg_string "hash" e with
            | None -> ()
            | Some hash -> (
                match Hashtbl.find_opt voted (e.node, e.view) with
                | None -> Hashtbl.add voted (e.node, e.view) hash
                | Some prev when String.equal prev hash ->
                    () (* benign re-send (retransmit or restart catch-up) *)
                | Some prev ->
                    add Vote_safety
                      (Printf.sprintf
                         "replica %d voted for two blocks in view %d (%s \
                          and %s)"
                         e.node e.view prev hash))
          end
      | Trace.Fault_heal ->
          if List.mem restart_arg e.args then restart e.node
      (* Enumerated so that adding a Trace.kind forces a decision about
         whether the trace checks must observe it. *)
      | Trace.Proposal_sent | Trace.Proposal_received | Trace.Vote_received
      | Trace.Timeout_received | Trace.View_change | Trace.Fork_prune
      | Trace.Tx_enqueue | Trace.Tx_dequeue | Trace.Service | Trace.Gauge
      | Trace.Fault_inject ->
          ())
    events;
  (match expect_commit_after with
  | Some after when not (commit_within ~after ~until:infinity events) ->
      add Liveness
        (Printf.sprintf "no commit after t=%.2fs (expected the cluster to \
                         keep committing)" after)
  | Some _ | None -> ());
  List.rev !out

let check_trace ?(byz_no = 0) ?expect_commit_after events =
  let committers =
    List.filter_map
      (fun (e : Trace.event) -> if e.kind = Trace.Commit then Some e.node else None)
      events
  in
  let oracle = Oracle.create ~replicas:(Array.of_list (List.sort_uniq Int.compare committers)) in
  let traced = scan_trace ~byz_no ?expect_commit_after ~oracle events in
  (* Trace hashes are already short hex. *)
  { violations = check_agreement ~show:Fun.id (Oracle.verdict oracle) @ traced; skipped = [] }

(* --- full evaluation --- *)

let evaluate ?(opts = default_opts) ~config ~(result : Runtime.result) ~events
    () =
  let agreement =
    check_agreement ~local_conflicts:result.Runtime.violations
      result.Runtime.agreement
  in
  let traced = scan_trace ~byz_no:config.Config.byz_no events in
  let liveness, skipped =
    match check_liveness ~opts ~config events with
    | Ok v -> (v, [])
    | Error reason -> ([], [ (Liveness, reason) ])
  in
  { violations = agreement @ traced @ liveness; skipped }
