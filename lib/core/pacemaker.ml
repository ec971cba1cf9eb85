open Bamboo_types

type entry_reason = Via_qc of Qc.t | Via_tc of Tcert.t | Startup

type t = {
  timeout : float;
  backoff : float;
  mutable view : Ids.view;
  mutable reason : entry_reason;
  mutable highest_timeout_sent : Ids.view;
  mutable consecutive : int; (* TC-entered views since the last QC *)
}

let create ?(backoff = 1.0) ~timeout () =
  if timeout <= 0.0 then invalid_arg "Pacemaker.create: timeout must be positive";
  if backoff < 1.0 then invalid_arg "Pacemaker.create: backoff must be >= 1";
  {
    timeout;
    backoff;
    view = 1;
    reason = Startup;
    highest_timeout_sent = 0;
    consecutive = 0;
  }

let current_view t = t.view

let entry_reason t = t.reason

let reason_label = function
  | Via_qc _ -> "qc"
  | Via_tc _ -> "tc"
  | Startup -> "startup"

let consecutive_timeouts t = t.consecutive

let timer_duration t =
  t.timeout *. (t.backoff ** float_of_int (min t.consecutive 16))

let advance t ~to_view ~reason =
  if to_view > t.view then begin
    t.view <- to_view;
    t.reason <- reason;
    (match reason with
    | Via_qc _ -> t.consecutive <- 0
    | Via_tc _ -> t.consecutive <- t.consecutive + 1
    | Startup -> ());
    true
  end
  else false

let note_timer_fired t view =
  if view = t.view then begin
    (* Re-broadcast on every expiry while stuck in the view: a single
       timeout message can be lost, and the TC needs a quorum of them. *)
    t.highest_timeout_sent <- max t.highest_timeout_sent view;
    `Broadcast_timeout
  end
  else `Stale

let timed_out t view = t.highest_timeout_sent >= view
