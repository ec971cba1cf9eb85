(** Transport abstraction for the non-simulated runtimes.

    Mirrors Bamboo's network module (adopted from Paxi): a simple
    message-passing model with two backends, the in-process lock-free ring
    transport ({!Ring_transport}, the analogue of Bamboo's Go channels for
    single-machine deployment) and TCP sockets ({!Tcp_transport}). The
    simulator does not go through this signature — it models NIC/link
    queues explicitly. *)

module type S = sig
  type t

  val self : t -> int
  (** This endpoint's replica id. *)

  val n : t -> int
  (** Cluster size. *)

  val send : t -> dst:int -> Bamboo_types.Message.t -> unit
  (** Best-effort asynchronous send; messages to closed endpoints are
      dropped silently (crash faults look like silence). *)

  val broadcast : t -> Bamboo_types.Message.t -> unit
  (** Sends to every replica except [self]. *)

  val recv : t -> timeout_s:float -> Bamboo_types.Message.t option
  (** Blocking receive with timeout; [None] on timeout or when the
      endpoint is closed. *)

  val recv_batch : t -> timeout_s:float -> max:int -> Bamboo_types.Message.t list
  (** [recv_batch t ~timeout_s ~max] blocks like {!recv} until at least
      one message is available (or timeout/close: [[]]), then returns up
      to [max] already-queued messages in receive order in one pass —
      consumers drain a whole wakeup's worth of traffic per call instead
      of paying one synchronization round per message. *)

  val close : t -> unit
end
