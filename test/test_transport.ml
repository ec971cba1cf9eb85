open Bamboo_types
module Ring_t = Bamboo_network.Ring_transport
module Tcp = Bamboo_network.Tcp_transport

let reg = Helpers.registry ()

let sample_msg ?(voter = 0) () =
  Message.Vote (Helpers.vote_for reg ~voter (Helpers.child ~reg ~view:1 Bamboo_types.Block.genesis))

(* --- transport conformance ---

   The same behavioural contract, run against both backends: the
   lock-free ring transport and TCP must be interchangeable under
   Threaded_runtime. *)

module type CLUSTERED = sig
  type cluster
  type t

  val create_cluster : n:int -> cluster
  val endpoint : cluster -> int -> t

  include Bamboo_network.Transport.S with type t := t
end

module Conformance (T : CLUSTERED) = struct
  let test_send_recv () =
    let cluster = T.create_cluster ~n:3 in
    let a = T.endpoint cluster 0 and b = T.endpoint cluster 1 in
    Alcotest.(check int) "self" 0 (T.self a);
    Alcotest.(check int) "n" 3 (T.n a);
    let msg = sample_msg () in
    T.send a ~dst:1 msg;
    (match T.recv b ~timeout_s:1.0 with
    | Some got -> Alcotest.(check string) "delivered" (Message.key msg) (Message.key got)
    | None -> Alcotest.fail "timeout");
    Alcotest.(check bool) "empty now" true (T.recv b ~timeout_s:0.01 = None)

  let test_fifo () =
    let cluster = T.create_cluster ~n:2 in
    let a = T.endpoint cluster 0 and b = T.endpoint cluster 1 in
    let msgs = List.init 4 (fun voter -> sample_msg ~voter ()) in
    List.iter (T.send a ~dst:1) msgs;
    List.iter
      (fun expected ->
        match T.recv b ~timeout_s:1.0 with
        | Some got ->
            Alcotest.(check string) "order" (Message.key expected) (Message.key got)
        | None -> Alcotest.fail "timeout")
      msgs

  let test_broadcast () =
    let cluster = T.create_cluster ~n:4 in
    let eps = Array.init 4 (T.endpoint cluster) in
    T.broadcast eps.(2) (sample_msg ());
    Array.iteri
      (fun i ep ->
        (* Generous timeout on the delivery side so the TCP backend's
           connect-on-first-send path fits; the sender's own (empty)
           queue needs only a short poll. *)
        let got = T.recv ep ~timeout_s:(if i = 2 then 0.05 else 1.0) in
        if i = 2 then Alcotest.(check bool) "not to self" true (got = None)
        else Alcotest.(check bool) "delivered" true (got <> None))
      eps

  let test_close () =
    let cluster = T.create_cluster ~n:2 in
    let a = T.endpoint cluster 0 and b = T.endpoint cluster 1 in
    T.close b;
    T.send a ~dst:1 (sample_msg ());
    Alcotest.(check bool) "closed drops" true (T.recv b ~timeout_s:0.02 = None)

  let test_cross_thread () =
    let cluster = T.create_cluster ~n:2 in
    let a = T.endpoint cluster 0 and b = T.endpoint cluster 1 in
    let sender =
      Thread.create
        (fun () ->
          Thread.delay 0.02;
          T.send a ~dst:1 (sample_msg ()))
        ()
    in
    let got = T.recv b ~timeout_s:1.0 in
    Thread.join sender;
    Alcotest.(check bool) "received across threads" true (got <> None)

  (* An empty inbox: the timeout is a park deadline, which only the
     ticker can end. *)
  let test_recv_timeout () =
    let cluster = T.create_cluster ~n:2 in
    let b = T.endpoint cluster 1 in
    List.iter
      (fun timeout_s ->
        let t0 = Unix.gettimeofday () in
        let got = T.recv b ~timeout_s in
        let elapsed = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool) "nothing received" true (got = None);
        if elapsed < timeout_s || elapsed > timeout_s +. 0.2 then
          Alcotest.failf "recv ~timeout_s:%.2f returned after %.3f s" timeout_s
            elapsed)
      [ 0.05; 0.01; 0.1 ];
    T.close (T.endpoint cluster 0);
    T.close b

  let tests prefix =
    [
      Alcotest.test_case (prefix ^ " send/recv") `Quick test_send_recv;
      Alcotest.test_case (prefix ^ " recv timeout") `Quick test_recv_timeout;
      Alcotest.test_case (prefix ^ " FIFO") `Quick test_fifo;
      Alcotest.test_case (prefix ^ " broadcast") `Quick test_broadcast;
      Alcotest.test_case (prefix ^ " close") `Quick test_close;
      Alcotest.test_case (prefix ^ " cross-thread") `Quick test_cross_thread;
    ]
end

module Ring_conformance = Conformance (struct
  include Ring_t

  let create_cluster ~n = Ring_t.create_cluster ~n ()
end)

(* --- ring-transport extensions beyond the common contract --- *)

let test_ring_recv_batch () =
  let cluster = Ring_t.create_cluster ~n:2 () in
  let a = Ring_t.endpoint cluster 0 and b = Ring_t.endpoint cluster 1 in
  let msgs = List.init 5 (fun i -> sample_msg ~voter:(i mod 4) ()) in
  List.iter (Ring_t.send a ~dst:1) msgs;
  let first = Ring_t.recv_batch b ~timeout_s:1.0 ~max:3 in
  Alcotest.(check int) "capped at max" 3 (List.length first);
  let rest = Ring_t.recv_batch b ~timeout_s:1.0 ~max:10 in
  Alcotest.(check int) "remainder" 2 (List.length rest);
  Alcotest.(check (list string))
    "batched order matches send order"
    (List.map Message.key msgs)
    (List.map Message.key (first @ rest))

let test_ring_backpressure_drops () =
  (* Tiny inbox, no consumer: the sender must hit the bounded-retry drop
     path instead of blocking or growing a queue. *)
  let cluster = Ring_t.create_cluster ~capacity:4 ~n:2 () in
  let a = Ring_t.endpoint cluster 0 and b = Ring_t.endpoint cluster 1 in
  for _ = 1 to 32 do
    Ring_t.send a ~dst:1 (sample_msg ())
  done;
  let got = Ring_t.recv_batch b ~timeout_s:0.1 ~max:64 in
  Alcotest.(check int) "only the ring capacity was delivered" 4
    (List.length got)

let test_ring_close_while_blocked () =
  let cluster = Ring_t.create_cluster ~n:2 () in
  let b = Ring_t.endpoint cluster 1 in
  let t0 = Unix.gettimeofday () in
  let closer =
    Thread.create
      (fun () ->
        Thread.delay 0.05;
        Ring_t.close b)
      ()
  in
  let got = Ring_t.recv b ~timeout_s:10.0 in
  let elapsed = Unix.gettimeofday () -. t0 in
  Thread.join closer;
  Alcotest.(check bool) "close returns None" true (got = None);
  Alcotest.(check bool)
    (Printf.sprintf "woken promptly (%.3fs)" elapsed)
    true (elapsed < 2.0)

(* --- doorbells under a ticker ---

   The ticker wakes a parked consumer only once its deadline has passed,
   so nothing but [ring] ends an early park: a lost wakeup shows as a
   stall, not as a 1 ms delay. *)

module Wakeup = Bamboo_network.Wakeup

let tick_period_s = 0.001

(* Runs [f] under a 1 ms ticker expiring [bells]; stops the ticker after. *)
let with_ticker bells f =
  let live = Atomic.make true in
  let (_ : Wakeup.ticker) =
    Wakeup.start_ticker ~period_s:tick_period_s
      ~live:(fun () -> Atomic.get live)
      ~wake:(fun () ->
        let now = Unix.gettimeofday () in
        List.iter (fun db -> Wakeup.expire db ~now) bells)
  in
  Fun.protect ~finally:(fun () -> Atomic.set live false) f

(* Parks on a never-ready bell until [deadline_s] from now. A watchdog
   rings the bell after 2 s, so a deadline the ticker never honours
   fails the test instead of hanging it. Returns the park's result, the
   elapsed time and the number of [ready] calls. *)
let park_idle db ~deadline_s =
  let calls = ref 0 in
  let rescued = Atomic.make false and parked = Atomic.make true in
  let watchdog =
    Thread.create
      (fun () ->
        let until = Unix.gettimeofday () +. 2.0 in
        while Atomic.get parked && Unix.gettimeofday () < until do
          Thread.delay 0.01
        done;
        if Atomic.get parked then begin
          Atomic.set rescued true;
          Wakeup.ring db
        end)
      ()
  in
  let t0 = Unix.gettimeofday () in
  let r =
    Wakeup.park db ~deadline:(t0 +. deadline_s) ~ready:(fun () ->
        incr calls;
        Atomic.get rescued)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Atomic.set parked false;
  Thread.join watchdog;
  if Atomic.get rescued then
    Alcotest.failf "a %.3f s park outlived its deadline; the watchdog rang it"
      deadline_s;
  (r, elapsed, !calls)

let test_tick_wakes_only_when_due () =
  let db = Wakeup.doorbell () in
  with_ticker [ db ] (fun () ->
      let r, elapsed, calls = park_idle db ~deadline_s:0.05 in
      Alcotest.(check bool) "timed out" false r;
      (* One check on entry, one at the first tick past the deadline; a
         ticker that woke every park would make about 50. *)
      if calls > 5 then
        Alcotest.failf "ready evaluated %d times in a 50 ms park" calls;
      if elapsed < 0.05 || elapsed > 0.05 +. 0.1 then
        Alcotest.failf "50 ms park returned after %.3f s" elapsed;
      (* A short park after the long one uses its own deadline. *)
      let r, elapsed, _ = park_idle db ~deadline_s:0.01 in
      Alcotest.(check bool) "second park timed out" false r;
      if elapsed < 0.01 || elapsed > 0.01 +. 0.1 then
        Alcotest.failf "10 ms park returned after %.3f s" elapsed)

(* Two threads bat a counter back and forth through two doorbells with
   10 s deadlines, so only [ring] can wake them in time. A lost wakeup
   stalls one round trip until its deadline; the first stalled round
   ends the game, so the test fails instead of stalling again. *)
let test_ping_pong_no_lost_wakeup () =
  let rounds = 10_000 in
  let a = Wakeup.doorbell () and b = Wakeup.doorbell () in
  let ball = Atomic.make 0 in
  let over = -1 in
  let deadline () = Unix.gettimeofday () +. 10.0 in
  with_ticker [ a; b ] (fun () ->
      let pong =
        Thread.create
          (fun () ->
            let rec serve i =
              if i <= rounds then begin
                ignore
                  (Wakeup.park b ~deadline:(deadline ()) ~ready:(fun () ->
                       let v = Atomic.get ball in
                       v = (2 * i) - 1 || v = over)
                    : bool);
                (* Fails once the game is over (or this park timed out). *)
                if Atomic.compare_and_set ball ((2 * i) - 1) (2 * i) then begin
                  Wakeup.ring a;
                  serve (i + 1)
                end
              end
            in
            serve 1)
          ()
      in
      let t0 = Unix.gettimeofday () in
      let rec play i slowest =
        if i > rounds then (rounds, slowest)
        else begin
          let s = Unix.gettimeofday () in
          Atomic.set ball ((2 * i) - 1);
          Wakeup.ring b;
          let returned =
            Wakeup.park a ~deadline:(deadline ()) ~ready:(fun () ->
                Atomic.get ball = 2 * i)
          in
          let took = Unix.gettimeofday () -. s in
          if returned && took < 2.0 then play (i + 1) (Float.max slowest took)
          else begin
            Atomic.set ball over;
            Wakeup.ring b;
            (i - 1, took)
          end
        end
      in
      let completed, slowest = play 1 0.0 in
      let total = Unix.gettimeofday () -. t0 in
      Thread.join pong;
      if completed < rounds then
        Alcotest.failf "round %d took %.3f s after %d in %.2f s" (completed + 1)
          slowest completed total)

(* --- TCP transport --- *)

let base_port = ref 29460

let fresh_ports n =
  let p = !base_port in
  base_port := p + n;
  Tcp.loopback_addresses ~n ~base_port:p

let test_tcp_round_trip () =
  let addresses = fresh_ports 2 in
  let a = Tcp.create ~self:0 ~addresses () in
  let b = Tcp.create ~self:1 ~addresses () in
  let msg = sample_msg () in
  Tcp.send a ~dst:1 msg;
  (match Tcp.recv b ~timeout_s:2.0 with
  | Some got ->
      Alcotest.(check string) "payload intact" (Codec.encode msg) (Codec.encode got)
  | None -> Alcotest.fail "timeout");
  Tcp.close a;
  Tcp.close b

let test_tcp_broadcast () =
  let addresses = fresh_ports 3 in
  let eps = List.map (fun (self, _) -> Tcp.create ~self ~addresses ()) addresses in
  (match eps with
  | [ a; b; c ] ->
      Tcp.broadcast a (sample_msg ());
      Alcotest.(check bool) "b got it" true (Tcp.recv b ~timeout_s:2.0 <> None);
      Alcotest.(check bool) "c got it" true (Tcp.recv c ~timeout_s:2.0 <> None);
      Alcotest.(check bool) "a did not" true (Tcp.recv a ~timeout_s:0.05 = None)
  | _ -> assert false);
  List.iter Tcp.close eps

let test_tcp_send_to_self () =
  let addresses = fresh_ports 1 in
  let a = Tcp.create ~self:0 ~addresses () in
  Tcp.send a ~dst:0 (sample_msg ());
  Alcotest.(check bool) "loop delivery" true (Tcp.recv a ~timeout_s:0.5 <> None);
  Tcp.close a

let test_tcp_unreachable_peer_is_silent () =
  let addresses = fresh_ports 2 in
  let a = Tcp.create ~self:0 ~addresses () in
  (* Peer 1 never started: sends must be dropped without raising. *)
  Tcp.send a ~dst:1 (sample_msg ());
  Alcotest.(check bool) "no crash" true true;
  Tcp.close a

module Tcp_conformance = Conformance (struct
  type cluster = Tcp.t array
  type t = Tcp.t

  let create_cluster ~n =
    let addresses = fresh_ports n in
    Array.init n (fun self -> Tcp.create ~self ~addresses ())

  let endpoint cluster i = cluster.(i)

  include (Tcp : Bamboo_network.Transport.S with type t := Tcp.t)
end)

let test_tcp_kill_reconnect () =
  let addresses = fresh_ports 2 in
  let a = Tcp.create ~self:0 ~addresses () in
  let b = Tcp.create ~self:1 ~addresses () in
  Tcp.send a ~dst:1 (sample_msg ());
  Alcotest.(check bool)
    "delivered before kill" true
    (Tcp.recv b ~timeout_s:2.0 <> None);
  (* Kill peer 1 and bring a fresh endpoint up on the same port: the
     writer in [a] must notice the broken connection, back off, redial
     and deliver again — the cluster harness's survivor path. *)
  Tcp.close b;
  Tcp.send a ~dst:1 (sample_msg ());
  Thread.delay 0.1;
  let b2 = Tcp.create ~self:1 ~addresses () in
  let rec pump tries =
    if tries > 100 then None
    else begin
      Tcp.send a ~dst:1 (sample_msg ());
      match Tcp.recv b2 ~timeout_s:0.1 with
      | Some m -> Some m
      | None -> pump (tries + 1)
    end
  in
  Alcotest.(check bool) "delivered after restart" true (pump 0 <> None);
  Alcotest.(check bool)
    "reconnects counted" true
    ((Tcp.stats a).Tcp.reconnects >= 1);
  Tcp.close a;
  Tcp.close b2

let test_tcp_queue_full_drops () =
  let addresses = fresh_ports 2 in
  let a = Tcp.create ~outbox_capacity:4 ~self:0 ~addresses () in
  (* Peer 1 never starts, so the writer cannot drain: pushes past the
     tiny ring capacity must be counted drops, never blocking sends. *)
  for _ = 1 to 64 do
    Tcp.send a ~dst:1 (sample_msg ())
  done;
  let st = Tcp.stats a in
  Alcotest.(check bool) "drops counted" true (st.Tcp.dropped_full > 0);
  Alcotest.(check bool)
    "accepted + dropped = attempted" true
    (st.Tcp.sends + st.Tcp.dropped_full = 64);
  Tcp.close a

(* Writers park with no deadline once their outbox is empty; [close]
   must still wake and join them at once. *)
let test_tcp_close_idle_writers () =
  let addresses = fresh_ports 3 in
  let a = Tcp.create ~self:0 ~addresses () in
  let b = Tcp.create ~self:1 ~addresses () in
  Tcp.send a ~dst:1 (sample_msg ());
  Alcotest.(check bool) "delivered" true (Tcp.recv b ~timeout_s:2.0 <> None);
  (* Let the writer to 1 go idle; the writer to 2 never had work. *)
  Thread.delay 0.1;
  let t0 = Unix.gettimeofday () in
  Tcp.close a;
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed > 0.5 then Alcotest.failf "close took %.3f s" elapsed;
  Tcp.close b

let test_tcp_large_message () =
  let addresses = fresh_ports 2 in
  let a = Tcp.create ~self:0 ~addresses () in
  let b = Tcp.create ~self:1 ~addresses () in
  let block =
    Helpers.child ~reg ~view:1 ~txs:(Helpers.txs 2000) Bamboo_types.Block.genesis
  in
  let msg = Message.Proposal { block; tc = None } in
  Tcp.send a ~dst:1 msg;
  (match Tcp.recv b ~timeout_s:3.0 with
  | Some (Message.Proposal { block = got; _ }) ->
      Alcotest.(check int) "txs intact" 2000 (Bamboo_types.Body.length got.Block.body);
      Alcotest.(check string) "hash intact" block.Block.hash got.Block.hash
  | Some _ | None -> Alcotest.fail "bad delivery");
  Tcp.close a;
  Tcp.close b

let suite =
  Ring_conformance.tests "ring"
  @ Tcp_conformance.tests "tcp"
  @ [
      Alcotest.test_case "ring recv_batch" `Quick test_ring_recv_batch;
      Alcotest.test_case "ring backpressure drops" `Quick
        test_ring_backpressure_drops;
      Alcotest.test_case "ring close while blocked" `Quick
        test_ring_close_while_blocked;
      Alcotest.test_case "ticker wakes a park only when due" `Quick
        test_tick_wakes_only_when_due;
      Alcotest.test_case "ping-pong loses no wakeup" `Quick
        test_ping_pong_no_lost_wakeup;
      Alcotest.test_case "tcp round trip" `Quick test_tcp_round_trip;
      Alcotest.test_case "tcp broadcast" `Quick test_tcp_broadcast;
      Alcotest.test_case "tcp self send" `Quick test_tcp_send_to_self;
      Alcotest.test_case "tcp unreachable peer" `Quick
        test_tcp_unreachable_peer_is_silent;
      Alcotest.test_case "tcp large message" `Quick test_tcp_large_message;
      Alcotest.test_case "tcp kill and reconnect" `Quick
        test_tcp_kill_reconnect;
      Alcotest.test_case "tcp queue-full drops" `Quick
        test_tcp_queue_full_drops;
      Alcotest.test_case "tcp close with idle writers" `Quick
        test_tcp_close_idle_writers;
    ]
