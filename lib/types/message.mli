(** Protocol messages exchanged between replicas.

    The unifying Propose-Vote scheme of cBFT needs only three replica
    message types: proposals, votes, and pacemaker timeouts. Streamlet's
    echoing re-sends received proposals/votes verbatim, so no extra
    constructor is needed — the node engine de-duplicates by {!key}. *)

type t =
  | Proposal of { block : Block.t; tc : Tcert.t option }
      (** A new block; [tc] justifies entering the block's view after a
          timeout (carried by the first proposal of the new view). Also
          reused as the reply to a {!Request_block} — blocks are
          content-addressed, so a forwarded proposal is self-validating. *)
  | Vote of Vote.t
  | Timeout of Timeout_msg.t
  | Request_block of { hash : Ids.hash; requester : Ids.replica }
      (** Block synchronization: ask a peer that demonstrably holds the
          block (it extended it) to re-send it. Unsigned — a bogus request
          costs the responder one message and nothing else. *)

val view : t -> Ids.view
(** The protocol view the message belongs to; 0 for block requests. *)

val wire_size : t -> int

val key : t -> string
(** A stable identity for de-duplication (echo suppression): proposals by
    block hash, votes by (block, voter), timeouts by (view, sender).
    Distinct identities give distinct keys: each kind has its own prefix,
    and the only field that may contain ['|'] (a hash) is followed by a
    decimal integer, which contains none. *)

val proposal_key : Ids.hash -> string
(** [key] of a proposal of the block with this hash. *)

val vote_key : block:Ids.hash -> voter:Ids.replica -> string
(** [key] of a vote. *)

val timeout_key : view:Ids.view -> sender:Ids.replica -> string
(** [key] of a timeout message. *)

val type_label : t -> string
(** ["proposal"], ["vote"], ["timeout"] or ["request"]; used by trace output and the
    cost model. *)

val pp : Format.formatter -> t -> unit
