(** The pacemaker (paper §III-B): view synchronization in the style of
    LibraBFT's round synchronizer. Whenever a replica times out in its
    current view it broadcasts a TIMEOUT message and advances once a quorum
    of timeouts (a TC) is assembled; replicas also advance when they see a
    QC or TC for their current view or beyond. The module tracks only view
    state — actual timer scheduling and message transmission belong to the
    node engine and runtime. *)

open Bamboo_types

type t

type entry_reason =
  | Via_qc of Qc.t
  | Via_tc of Tcert.t
  | Startup  (** Entering view 1 at boot. *)

val create : ?backoff:float -> timeout:float -> unit -> t
(** [timeout] is the base per-view timer duration (Table I, default
    100 ms). [backoff] (default 1.0, i.e. fixed timers) multiplies the
    duration for every consecutive view entered through a timeout
    certificate, so timers grow geometrically while the network cannot
    keep up and reset to the base the moment a QC makes progress. Must be
    at least 1. *)

val current_view : t -> Ids.view

val entry_reason : t -> entry_reason
(** How the current view was entered — leaders use this to decide whether
    the first proposal must carry a TC. *)

val reason_label : entry_reason -> string
(** ["qc"], ["tc"] or ["startup"]; used by trace events. *)

val timer_duration : t -> float
(** Duration for the current view's timer, including any backoff. *)

val consecutive_timeouts : t -> int
(** Views entered through TCs since the last QC-driven advance. *)

val advance : t -> to_view:Ids.view -> reason:entry_reason -> bool
(** [advance t ~to_view ~reason] moves to [to_view] if it is beyond the
    current view; returns whether a move happened. The caller must restart
    its view timer and consider proposing when it returns [true]. *)

val note_timer_fired : t -> Ids.view -> [ `Broadcast_timeout | `Stale ]
(** Reaction to a local view-timer expiry: [`Broadcast_timeout] whenever
    the view is still current — every expiry re-broadcasts (and re-arms),
    so a lost timeout message cannot starve TC formation — and [`Stale]
    for timers of abandoned views. *)

val timed_out : t -> Ids.view -> bool
(** Whether the local timer already fired for the given view. *)
