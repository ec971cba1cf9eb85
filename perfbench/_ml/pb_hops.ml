(* Thread-hop reference for the wall-clock plane. On a shared host the
   time a message takes to cross threads and loopback sockets drifts by
   tens of percent over minutes, and [tcp_n4]'s latency is made of such
   crossings. This module, independent of the repository's code, runs a
   toy of the cluster's message pattern with the same kinds of threads
   and sockets and times its views:

   - four nodes on one domain, a full mesh of loopback TCP connections
     (TCP_NODELAY), one writer thread per outbound connection fed by a
     mutex/condvar queue, one reader thread per inbound connection pushing
     8-byte frames into the node's mutex/condvar inbox;
   - view [v]'s leader [v mod 4] broadcasts a proposal; every node answers
     with a vote to the next leader, who proposes [v + 1] on the third
     vote (2f + 1 of four).

   There is no cryptography, encoding or payload, so nothing the
   repository does moves it; only the machine does. Each [tcp_n4]
   measurement process runs it right after its window and scales its
   latencies by [reference_s] over the toy's view time: milliseconds on
   a machine where a toy view takes [reference_s]. *)

let reference_s = 150e-6
let window_s = 0.4

let nodes = 4
let quorum = 3

type 'a chan = { m : Mutex.t; c : Condition.t; q : 'a Queue.t }

let chan () = { m = Mutex.create (); c = Condition.create (); q = Queue.create () }

let put ch x =
  Mutex.lock ch.m;
  Queue.add x ch.q;
  Condition.signal ch.c;
  Mutex.unlock ch.m

let take ch =
  Mutex.lock ch.m;
  while Queue.is_empty ch.q do
    Condition.wait ch.c ch.m
  done;
  let x = Queue.pop ch.q in
  Mutex.unlock ch.m;
  x

(* A message is [view * 2 + kind], kind 0 a proposal and 1 a vote; -1
   stops the thread that takes it. *)
let stop_msg = -1
let proposal v = v * 2
let vote v = (v * 2) + 1
let frame = 8

let rec write_all fd b off len =
  if len > 0 then
    let k = Unix.write fd b off len in
    write_all fd b (off + k) (len - k)

let rec read_all fd b off len =
  len = 0
  ||
  let k = Unix.read fd b off len in
  k > 0 && read_all fd b (off + k) (len - k)

(* The ordered pairs (src, dst) of distinct nodes, each with the
   connection carrying src -> dst as (src's end, dst's end). *)
let connect_mesh () =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener nodes;
  let addr = Unix.getsockname listener in
  let connect () =
    let out = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect out addr;
    let inn, _ = Unix.accept listener in
    List.iter (fun fd -> Unix.setsockopt fd Unix.TCP_NODELAY true) [ out; inn ];
    (out, inn)
  in
  let ids = List.init nodes Fun.id in
  let pairs =
    List.concat_map
      (fun i -> List.filter_map (fun j -> if i = j then None else Some (i, j)) ids)
      ids
  in
  let mesh = List.map (fun p -> (p, connect ())) pairs in
  Unix.close listener;
  mesh

(* Runs the toy for [seconds]; returns its seconds per view. *)
let view_s ~seconds =
  let mesh = connect_mesh () in
  let inboxes = Array.init nodes (fun _ -> chan ()) in
  let outboxes = Array.init (nodes * nodes) (fun _ -> chan ()) in
  let outbox (src, dst) = outboxes.((src * nodes) + dst) in
  let views = Atomic.make 0 in
  let finished = chan () in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. seconds in
  let send ~src ~dst msg =
    if src = dst then put inboxes.(src) msg else put (outbox (src, dst)) msg
  in
  let broadcast ~src msg =
    for dst = 0 to nodes - 1 do
      send ~src ~dst msg
    done
  in
  let node self () =
    let decided = ref (-1) and count = ref 0 in
    let rec loop () =
      let msg = take inboxes.(self) in
      if msg <> stop_msg then begin
        let v = msg / 2 in
        if msg land 1 = 0 then send ~src:self ~dst:((v + 1) mod nodes) (vote v)
        else if v > !decided then begin
          (* A view's late fourth vote finds it already decided. *)
          incr count;
          if !count = quorum then begin
            decided := v;
            count := 0;
            Atomic.incr views;
            if Unix.gettimeofday () < deadline then broadcast ~src:self (proposal (v + 1))
            else put finished (Unix.gettimeofday ())
          end
        end;
        loop ()
      end
    in
    loop ()
  in
  let writer (fd, _) box () =
    let b = Bytes.create frame in
    let rec loop () =
      let msg = take box in
      if msg <> stop_msg then begin
        Bytes.set_int64_le b 0 (Int64.of_int msg);
        write_all fd b 0 frame;
        loop ()
      end
    in
    loop ()
  in
  let reader (_, fd) inbox () =
    let b = Bytes.create frame in
    let rec loop () =
      if try read_all fd b 0 frame with Unix.Unix_error _ -> false then begin
        put inbox (Int64.to_int (Bytes.get_int64_le b 0));
        loop ()
      end
    in
    loop ()
  in
  let writers =
    List.map (fun (p, conn) -> Thread.create (writer conn (outbox p)) ()) mesh
  in
  let readers =
    List.map (fun ((_, dst), conn) -> Thread.create (reader conn inboxes.(dst)) ()) mesh
  in
  let node_threads = List.init nodes (fun i -> Thread.create (node i) ()) in
  broadcast ~src:0 (proposal 0);
  let t1 = take finished in
  (* Nodes, then writers, take a stop message; once no writer is left,
     shutting the writing ends down gives every reader end of file. *)
  Array.iter (fun ib -> put ib stop_msg) inboxes;
  List.iter Thread.join node_threads;
  List.iter (fun (p, _) -> put (outbox p) stop_msg) mesh;
  List.iter Thread.join writers;
  List.iter (fun (_, (out, _)) -> Unix.shutdown out Unix.SHUTDOWN_SEND) mesh;
  List.iter Thread.join readers;
  List.iter
    (fun (_, (out, inn)) ->
      Unix.close out;
      Unix.close inn)
    mesh;
  (t1 -. t0) /. float_of_int (Atomic.get views)

(* Factor that turns a latency measured now into one on the reference
   machine. *)
let scale () = reference_s /. view_s ~seconds:window_s
