module Json = Bamboo_util.Json

type kind =
  | Proposal_sent
  | Proposal_received
  | Vote_sent
  | Vote_received
  | Qc_formed
  | Timeout_fired
  | Timeout_received
  | View_change
  | Commit
  | Fork_prune
  | Tx_enqueue
  | Tx_dequeue
  | Service
  | Gauge
  | Fault_inject
  | Fault_heal

let kind_name = function
  | Proposal_sent -> "proposal_sent"
  | Proposal_received -> "proposal_received"
  | Vote_sent -> "vote_sent"
  | Vote_received -> "vote_received"
  | Qc_formed -> "qc_formed"
  | Timeout_fired -> "timeout_fired"
  | Timeout_received -> "timeout_received"
  | View_change -> "view_change"
  | Commit -> "commit"
  | Fork_prune -> "fork_prune"
  | Tx_enqueue -> "tx_enqueue"
  | Tx_dequeue -> "tx_dequeue"
  | Service -> "service"
  | Gauge -> "gauge"
  | Fault_inject -> "fault_inject"
  | Fault_heal -> "fault_heal"

let kind_of_name = function
  | "proposal_sent" -> Ok Proposal_sent
  | "proposal_received" -> Ok Proposal_received
  | "vote_sent" -> Ok Vote_sent
  | "vote_received" -> Ok Vote_received
  | "qc_formed" -> Ok Qc_formed
  | "timeout_fired" -> Ok Timeout_fired
  | "timeout_received" -> Ok Timeout_received
  | "view_change" -> Ok View_change
  | "commit" -> Ok Commit
  | "fork_prune" -> Ok Fork_prune
  | "tx_enqueue" -> Ok Tx_enqueue
  | "tx_dequeue" -> Ok Tx_dequeue
  | "service" -> Ok Service
  | "gauge" -> Ok Gauge
  | "fault_inject" -> Ok Fault_inject
  | "fault_heal" -> Ok Fault_heal
  | s -> Error (Printf.sprintf "unknown trace kind %S" s)

type event = {
  seq : int;
  ts : float;
  node : int;
  view : int;
  kind : kind;
  span : int;
  args : (string * Json.t) list;
}

let dummy_event =
  { seq = 0; ts = 0.0; node = 0; view = 0; kind = Gauge; span = 0; args = [] }

type ring_state = {
  buf : event array;
  capacity : int;
  mutable count : int; (* total events ever emitted *)
}

type chrome_state = {
  c_oc : out_channel;
  mutable first : bool;
  named : (int * int, unit) Hashtbl.t;
      (* (pid, tid) pairs whose metadata has been written; tid -1 keys the
         process_name record *)
}

type sink =
  | Null
  | Ring of ring_state
  | Jsonl of out_channel
  | Chrome of chrome_state

type t = { sink : sink; mutable next_seq : int; mutable next_span : int }

let null = { sink = Null; next_seq = 0; next_span = 0 }

let ring ~capacity =
  if capacity <= 0 then invalid_arg "Trace.ring: capacity must be positive";
  {
    sink = Ring { buf = Array.make capacity dummy_event; capacity; count = 0 };
    next_seq = 0;
    next_span = 0;
  }

let jsonl oc = { sink = Jsonl oc; next_seq = 0; next_span = 0 }

let chrome oc =
  output_string oc "{\"traceEvents\":[";
  {
    sink = Chrome { c_oc = oc; first = true; named = Hashtbl.create 64 };
    next_seq = 0;
    next_span = 0;
  }

let enabled t = match t.sink with Null -> false | _ -> true

let fresh_span t =
  t.next_span <- t.next_span + 1;
  t.next_span

let event_to_json ev =
  Json.Obj
    [
      ("seq", Json.Int ev.seq);
      ("ts", Json.Float ev.ts);
      ("node", Json.Int ev.node);
      ("view", Json.Int ev.view);
      ("kind", Json.String (kind_name ev.kind));
      ("span", Json.Int ev.span);
      ("args", Json.Obj ev.args);
    ]

let event_of_json json =
  match json with
  | Json.Obj _ -> (
      try
        let kind_str = Json.get_string (Json.member "kind" json) in
        match kind_of_name kind_str with
        | Error _ as e -> e
        | Ok kind ->
            let args =
              match Json.member "args" json with
              | Json.Obj kvs -> kvs
              | Json.Null -> []
              | _ -> invalid_arg "args"
            in
            Ok
              {
                seq = Json.to_int (Json.member "seq" json);
                ts = Json.to_float (Json.member "ts" json);
                node = Json.to_int (Json.member "node" json);
                view = Json.to_int (Json.member "view" json);
                kind;
                span = Json.to_int (Json.member "span" json);
                args;
              }
      with Invalid_argument msg ->
        Error (Printf.sprintf "malformed trace event: %s" msg))
  | _ -> Error "trace event is not a JSON object"

let chronological a b =
  match Float.compare a.ts b.ts with
  | 0 -> (
      match Int.compare a.node b.node with
      | 0 -> Int.compare a.seq b.seq
      | c -> c)
  | c -> c

let read_jsonl path =
  match open_in path with
  | exception Sys_error _ -> ([], 0)
  | ic ->
      let events = ref [] and skipped = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if not (String.equal (String.trim line) "") then
             match Json.of_string line with
             | exception Json.Parse_error _ -> incr skipped
             | j -> (
                 match event_of_json j with
                 | Ok e -> events := e :: !events
                 | Error _ -> incr skipped)
         done
       with End_of_file -> close_in ic);
      (List.rev !events, !skipped)

(* --- Chrome trace_event output ---

   One "process" per replica and one "thread" per logical resource:
   tid 0 = consensus engine, 1 = CPU queue, 2 = outbound NIC, 3 = inbound
   NIC. Timestamps are microseconds as the format requires. *)

let tid_name = function
  | 0 -> "consensus"
  | 1 -> "cpu"
  | 2 -> "nic_out"
  | 3 -> "nic_in"
  | _ -> "other"

let chrome_write st json =
  if st.first then st.first <- false else output_char st.c_oc ',';
  output_char st.c_oc '\n';
  output_string st.c_oc (Json.to_string json)

let chrome_ensure_named st ~pid ~tid =
  if not (Hashtbl.mem st.named (pid, -1)) then begin
    Hashtbl.add st.named (pid, -1) ();
    let pname =
      if pid >= 0 then Printf.sprintf "replica %d" pid else "cluster"
    in
    chrome_write st
      (Json.Obj
         [
           ("name", Json.String "process_name");
           ("ph", Json.String "M");
           ("pid", Json.Int pid);
           ("tid", Json.Int 0);
           ("args", Json.Obj [ ("name", Json.String pname) ]);
         ])
  end;
  if not (Hashtbl.mem st.named (pid, tid)) then begin
    Hashtbl.add st.named (pid, tid) ();
    chrome_write st
      (Json.Obj
         [
           ("name", Json.String "thread_name");
           ("ph", Json.String "M");
           ("pid", Json.Int pid);
           ("tid", Json.Int tid);
           ("args", Json.Obj [ ("name", Json.String (tid_name tid)) ]);
         ])
  end

let us s = s *. 1e6

let chrome_instant st ev =
  chrome_ensure_named st ~pid:ev.node ~tid:0;
  chrome_write st
    (Json.Obj
       [
         ("name", Json.String (kind_name ev.kind));
         ("cat", Json.String "consensus");
         ("ph", Json.String "i");
         ("s", Json.String "t");
         ("ts", Json.Float (us ev.ts));
         ("pid", Json.Int ev.node);
         ("tid", Json.Int 0);
         ( "args",
           Json.Obj
             (("view", Json.Int ev.view) :: ("span", Json.Int ev.span)
             :: ev.args) );
       ])

let record t ~ts ~node ~view ~span ~args kind =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let ev = { seq; ts; node; view; kind; span; args } in
  match t.sink with
  | Null -> ()
  | Ring r ->
      r.buf.(r.count mod r.capacity) <- ev;
      r.count <- r.count + 1
  | Jsonl oc ->
      output_string oc (Json.to_string (event_to_json ev));
      output_char oc '\n'
  | Chrome st -> chrome_instant st ev

let emit t ~ts ~node ?(view = 0) ?(span = 0) ?(args = []) kind =
  match t.sink with
  | Null -> ()
  | _ -> record t ~ts ~node ~view ~span ~args kind

let queue_tid = function `Cpu -> 1 | `Nic_out -> 2 | `Nic_in -> 3
let queue_name = function
  | `Cpu -> "cpu"
  | `Nic_out -> "nic_out"
  | `Nic_in -> "nic_in"

let service t ~node ~queue ~start ~duration =
  match t.sink with
  | Null -> ()
  | Chrome st ->
      let tid = queue_tid queue in
      chrome_ensure_named st ~pid:node ~tid;
      chrome_write st
        (Json.Obj
           [
             ("name", Json.String (queue_name queue));
             ("cat", Json.String "machine");
             ("ph", Json.String "X");
             ("ts", Json.Float (us start));
             ("dur", Json.Float (us duration));
             ("pid", Json.Int node);
             ("tid", Json.Int tid);
           ])
  | Ring _ | Jsonl _ ->
      record t ~ts:start ~node ~view:0 ~span:0
        ~args:
          [
            ("queue", Json.String (queue_name queue));
            ("duration", Json.Float duration);
          ]
        Service

let gauge t ~ts ~node ~name value =
  match t.sink with
  | Null -> ()
  | Chrome st ->
      chrome_ensure_named st ~pid:node ~tid:0;
      chrome_write st
        (Json.Obj
           [
             ("name", Json.String name);
             ("cat", Json.String "probe");
             ("ph", Json.String "C");
             ("ts", Json.Float (us ts));
             ("pid", Json.Int node);
             ("tid", Json.Int 0);
             ("args", Json.Obj [ ("value", Json.Float value) ]);
           ])
  | Ring _ | Jsonl _ ->
      record t ~ts ~node ~view:0 ~span:0
        ~args:[ ("name", Json.String name); ("value", Json.Float value) ]
        Gauge

let events t =
  match t.sink with
  | Ring r ->
      let n = min r.count r.capacity in
      let start = r.count - n in
      List.init n (fun i -> r.buf.((start + i) mod r.capacity))
  | Null | Jsonl _ | Chrome _ -> []

let close t =
  match t.sink with
  | Null | Ring _ -> ()
  | Jsonl oc -> flush oc
  | Chrome st ->
      output_string st.c_oc "\n],\"displayTimeUnit\":\"ms\"}\n";
      flush st.c_oc
