open Bamboo_types

(* Wall-clock reads time out socket parks and pace reconnect backoff on a
   real deployment transport; determinism claims only cover the simulator
   path. *)
[@@@lint.allow "no-ambient-nondeterminism"]

module Ring = Bamboo_util.Ring
module Registry = Bamboo_metrics.Registry

let default_outbox_capacity = 4096
let inbox_capacity = 8192
let writer_drain_max = 256
let backoff_base_s = 0.05
let backoff_cap_s = 2.0
let backoff_max_exp = 8
let max_frame = 64 * 1024 * 1024

(* One outgoing connection per peer, owned by a dedicated writer thread.
   Senders never block on the network: they enqueue into the bounded
   [outbox] (counted drop-on-full, like a saturated NIC) and ring the
   writer's bell. *)
type peer = {
  dst : int;
  addr : Unix.sockaddr;
  outbox : Message.t Ring.t;
  bell : Wakeup.doorbell;
  mutable writer : Thread.t option;
}

type t = {
  self : int;
  addresses : (int * Unix.sockaddr) list;
  listener : Unix.file_descr;
  inbox : Inbox.t;
  peers : peer option array; [@lint.allow "guarded-by"]
      (* indexed by replica id; [None] at [self]; layout fixed before the
         accept/writer threads start, never written afterwards *)
  closed : bool Atomic.t;
  reader_mutex : Mutex.t;
  mutable reader_fds : Unix.file_descr list; [@guarded_by "reader_mutex"]
  mutable readers : Thread.t list; [@guarded_by "reader_mutex"]
  mutable accepter : Thread.t option; [@lint.allow "guarded-by"]
      (* written once by [create] on the spawning thread, read by [close] *)
  (* Producer-side tallies: bumped from any thread. *)
  sends : int Atomic.t;
  dropped_full : int Atomic.t;
  reconnects : int Atomic.t;
  conn_failures : int Atomic.t;
}

type stats = {
  sends : int;
  dropped_full : int;
  reconnects : int;
  conn_failures : int;
  recv_msgs : int;
  recv_dropped : int;
  peak_depth : int;
}

(* --- inbound path: reader threads -> Inbox -> recv/recv_batch --- *)

let read_exact fd buf off len =
  let rec loop off len =
    if len > 0 then begin
      let k = Unix.read fd buf off len in
      if k = 0 then raise End_of_file;
      loop (off + k) (len - k)
    end
  in
  loop off len

let reader_loop t fd =
  (try
     while not (Atomic.get t.closed) do
       let hdr = Bytes.create 4 in
       read_exact fd hdr 0 4;
       let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
       if len < 0 || len > max_frame then raise End_of_file;
       let body = Bytes.create len in
       read_exact fd body 0 len;
       let msg = Codec.decode (Bytes.unsafe_to_string body) in
       ignore (Inbox.push t.inbox msg : bool)
     done
   with End_of_file | Sys_error _ | Unix.Unix_error _ | Codec.Decode_error _ ->
     ());
  Mutex.lock t.reader_mutex;
  t.reader_fds <- List.filter (fun d -> d != fd) t.reader_fds;
  Mutex.unlock t.reader_mutex;
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t =
  try
    while not (Atomic.get t.closed) do
      let fd, _ = Unix.accept t.listener in
      if Atomic.get t.closed then (
        try Unix.close fd with Unix.Unix_error _ -> ())
      else begin
        Mutex.lock t.reader_mutex;
        t.reader_fds <- fd :: t.reader_fds;
        t.readers <- Thread.create (reader_loop t) fd :: t.readers;
        Mutex.unlock t.reader_mutex
      end
    done
  with Unix.Unix_error _ | Sys_error _ -> ()

(* --- outbound path: per-peer writer thread with reconnect/backoff --- *)

let write_frame fd msg =
  let body = Codec.encode msg in
  let len = String.length body in
  let buf = Bytes.create (4 + len) in
  Bytes.set_int32_be buf 0 (Int32.of_int len);
  Bytes.blit_string body 0 buf 4 len;
  let rec loop off remaining =
    if remaining > 0 then begin
      let k = Unix.write fd buf off remaining in
      loop (off + k) (remaining - k)
    end
  in
  loop 0 (4 + len)

(* Deterministic jitter in [0.75, 1.25): a fixed mix of (self, dst,
   attempt) spreads simultaneous reconnect storms without a PRNG, and
   replays identically across runs. *)
let jitter ~self ~dst ~attempt =
  let mix = ((((self * 31) + dst) * 31) + attempt) land 0xFF in
  0.75 +. (float_of_int mix /. 512.0)

let backoff_delay ~self ~dst ~attempt =
  let base = backoff_base_s *. (2.0 ** float_of_int (min attempt backoff_max_exp)) in
  Float.min backoff_cap_s base *. jitter ~self ~dst ~attempt

let writer_loop t peer =
  let fd = ref None in
  let attempt = ref 0 in
  let was_connected = ref false in
  let pending = ref [] in
  let close_fd () =
    match !fd with
    | None -> ()
    | Some d ->
        fd := None;
        (try Unix.shutdown d Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        (try Unix.close d with Unix.Unix_error _ -> ())
  in
  let give_up () = Atomic.get t.closed || Ring.is_closed peer.outbox in
  let backoff_sleep () =
    let delay = backoff_delay ~self:t.self ~dst:peer.dst ~attempt:!attempt in
    let deadline = Unix.gettimeofday () +. delay in
    ignore (Wakeup.park peer.bell ~deadline ~ready:give_up : bool)
  in
  let ensure_connected () =
    match !fd with
    | Some d -> Some d
    | None -> (
        let d = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        try
          Unix.connect d peer.addr;
          (try Unix.setsockopt d Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
          fd := Some d;
          (* A connection established after a disconnect or after failed
             attempts is the observable "came back with backoff" signal. *)
          if !was_connected || !attempt > 0 then Atomic.incr t.reconnects;
          was_connected := true;
          attempt := 0;
          Some d
        with Unix.Unix_error _ | Sys_error _ ->
          (* Close the socket fd on the failed-connect path — it would
             otherwise leak one descriptor per attempt. *)
          (try Unix.close d with Unix.Unix_error _ -> ());
          Atomic.incr t.conn_failures;
          incr attempt;
          None)
  in
  let rec loop () =
    if !pending = [] then begin
      let acc = ref [] in
      ignore
        (Ring.drain peer.outbox ~max:writer_drain_max (fun m ->
             acc := m :: !acc)
          : int);
      pending := List.rev !acc
    end;
    match !pending with
    | [] ->
        if give_up () then close_fd ()
        else begin
          (* No deadline: a send or [close] rings the bell. *)
          ignore
            (Wakeup.park peer.bell ~deadline:infinity ~ready:(fun () ->
                 give_up () || not (Ring.is_empty peer.outbox))
              : bool);
          loop ()
        end
    | msgs -> (
        match ensure_connected () with
        | None ->
            if give_up () then close_fd () (* unreachable at close: drop *)
            else begin
              backoff_sleep ();
              loop ()
            end
        | Some d ->
            let rec send_all = function
              | [] -> pending := []
              | m :: rest -> (
                  match write_frame d m with
                  | () -> send_all rest
                  | exception (Unix.Unix_error _ | Sys_error _) ->
                      (* Connection died mid-batch: keep the unsent suffix
                         and re-deliver it after reconnecting. *)
                      pending := m :: rest;
                      close_fd ();
                      incr attempt)
            in
            send_all msgs;
            loop ())
  in
  loop ()

(* --- lifecycle --- *)

let create ?(outbox_capacity = default_outbox_capacity) ~self ~addresses () =
  (* Writers hit EPIPE (an exception we handle) instead of dying on the
     default SIGPIPE disposition when a peer's socket is torn down. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let addr = List.assoc self addresses in
  let n = List.length addresses in
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener addr;
  Unix.listen listener 64;
  let peers = Array.make n None in
  List.iter
    (fun (id, addr) ->
      if id <> self then
        peers.(id) <-
          Some
            {
              dst = id;
              addr;
              outbox = Ring.create ~capacity:outbox_capacity ();
              bell = Wakeup.doorbell ();
              writer = None;
            })
    addresses;
  let t =
    {
      self;
      addresses;
      listener;
      inbox = Inbox.create ~capacity:inbox_capacity;
      peers;
      closed = Atomic.make false;
      reader_mutex = Mutex.create ();
      reader_fds = [];
      readers = [];
      accepter = None;
      sends = Atomic.make 0;
      dropped_full = Atomic.make 0;
      reconnects = Atomic.make 0;
      conn_failures = Atomic.make 0;
    }
  in
  t.accepter <- Some (Thread.create accept_loop t);
  Array.iter
    (function
      | None -> ()
      | Some peer -> peer.writer <- Some (Thread.create (writer_loop t) peer))
    peers;
  t

let loopback_addresses ~n ~base_port =
  List.init n (fun i ->
      (i, Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + i)))

let self t = t.self
let n t = List.length t.addresses

let send t ~dst msg =
  if dst < 0 || dst >= Array.length t.peers then
    invalid_arg "Tcp_transport.send: bad destination";
  if dst = t.self then ignore (Inbox.push t.inbox msg : bool)
  else
    match t.peers.(dst) with
    | None -> ()
    | Some peer -> (
        match Ring.push peer.outbox msg with
        | Ring.Pushed ->
            Atomic.incr t.sends;
            Wakeup.ring peer.bell
        | Ring.Closed -> () (* closing endpoint: silence *)
        | Ring.Full ->
            (* Saturated NIC semantics: no blocking, no retry — count the
               drop so overload is observable. *)
            Atomic.incr t.dropped_full)

let broadcast t msg =
  List.iter (fun (id, _) -> if id <> t.self then send t ~dst:id msg) t.addresses

let recv_batch t = Inbox.recv_batch t.inbox
let recv t = Inbox.recv t.inbox

let close t =
  if Atomic.compare_and_set t.closed false true then begin
    (* Unblock the accepter: shutdown works on Linux listening sockets; a
       self-connect covers platforms where it does not. *)
    (try Unix.shutdown t.listener Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try
       let d = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try Unix.connect d (List.assoc t.self t.addresses)
        with Unix.Unix_error _ | Not_found -> ());
       Unix.close d
     with Unix.Unix_error _ -> ());
    (match t.accepter with None -> () | Some th -> Thread.join th);
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    (* Writers: close their outboxes, ring them out of any park (idle or
       backoff), and join. *)
    Array.iter
      (function
        | None -> ()
        | Some peer ->
            ignore (Ring.close peer.outbox : bool);
            Wakeup.ring peer.bell)
      t.peers;
    Array.iter
      (function
        | None -> ()
        | Some peer -> (
            match peer.writer with None -> () | Some th -> Thread.join th))
      t.peers;
    (* Readers: shutdown unblocks a thread stuck in [read]; then join. *)
    Mutex.lock t.reader_mutex;
    let fds = t.reader_fds in
    Mutex.unlock t.reader_mutex;
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      fds;
    let readers =
      Mutex.lock t.reader_mutex;
      let r = t.readers in
      t.readers <- [];
      Mutex.unlock t.reader_mutex;
      r
    in
    List.iter Thread.join readers;
    Inbox.close t.inbox
  end

let stats (t : t) =
  let inbox = Inbox.stats t.inbox in
  {
    sends = Atomic.get t.sends;
    dropped_full = Atomic.get t.dropped_full;
    reconnects = Atomic.get t.reconnects;
    conn_failures = Atomic.get t.conn_failures;
    recv_msgs = inbox.received;
    recv_dropped = inbox.dropped;
    peak_depth = inbox.peak_depth;
  }

let publish_metrics t reg =
  if Registry.enabled reg then begin
    let labels = [ ("node", string_of_int t.self) ] in
    let s = stats t in
    Registry.Counter.add
      (Registry.counter reg ~labels "tcp_transport_sends")
      s.sends;
    Registry.Counter.add
      (Registry.counter reg ~labels "tcp_transport_dropped_full")
      s.dropped_full;
    Registry.Counter.add
      (Registry.counter reg ~labels "tcp_transport_reconnects")
      s.reconnects;
    Registry.Counter.add
      (Registry.counter reg ~labels "tcp_transport_conn_failures")
      s.conn_failures;
    Registry.Counter.add
      (Registry.counter reg ~labels "tcp_transport_recv_msgs")
      s.recv_msgs;
    Registry.Counter.add
      (Registry.counter reg ~labels "tcp_transport_recv_dropped")
      s.recv_dropped;
    Registry.Gauge.set
      (Registry.gauge reg ~labels "tcp_transport_peak_depth")
      (float_of_int s.peak_depth)
  end
