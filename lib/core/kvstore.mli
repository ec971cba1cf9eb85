(** In-memory key-value execution layer.

    The paper's Bamboo "adopt[s] an in-memory key-value data store for
    simplicity" as the state machine behind consensus. Commands are encoded
    into transaction payloads; every replica applies the committed
    transactions of the finalized chain in order, so replica states are
    identical — checkable via the deterministic {!state_hash}. *)

type command =
  | Put of { key : string; value : string }
  | Get of string
  | Delete of string

type outcome =
  | Stored  (** A [Put] or [Delete] was applied. *)
  | Found of string
  | Missing

type t

val create : unit -> t

val encode_command : command -> string
(** Serialize a command into transaction payload bytes. *)

val decode_command : string -> (command, string) result

val apply : t -> command -> outcome
(** Executes one command. *)

val apply_tx : t -> string -> outcome option
(** [apply_tx t data] decodes a transaction's payload bytes and applies
    them; [None] when the payload is empty or not a valid command
    (benchmark filler traffic). Callers pass {!Bamboo_types.Body.data} of a
    committed block, so no transaction record is built. *)

val size : t -> int
(** Number of live keys. *)

val get : t -> string -> string option

val state_hash : t -> string
(** SHA-256 over the sorted key/value pairs: equal across replicas iff the
    stores are equal. *)
