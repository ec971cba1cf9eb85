(** Periodic sampling of simulator resource gauges.

    A probe holds a set of named gauges (per-node CPU/NIC queue depths,
    busy fractions, the simulator's event-heap size, ...) registered by
    the runtime. {!sample} reads every gauge, records the value into a
    metrics registry gauge, and — when a trace is attached — emits a
    counter event so queue dynamics are visible on the timeline. The
    registry is the only store of samples: {!summaries} reads them back
    from it, and a probe keeps nothing per sample, so its memory does not
    grow with run length.

    The probe never schedules simulator events itself; the runtime drives
    it on its configured virtual-time interval. *)

type t

type summary = {
  node : int;  (** Replica id; -1 for cluster-level gauges. *)
  name : string;
  samples : int;
  mean : float;
  max : float;
}

val create :
  ?trace:Trace.t -> ?registry:Bamboo_metrics.Registry.t -> unit -> t
(** The caller schedules the samples. Each gauge records into a registry
    gauge of the same name, labelled [node=<id>] for node-scoped gauges:
    into [registry] when it is given and enabled, so probe summaries and
    metrics exports report one number, and otherwise into a private
    registry. Probes sharing a registry share its gauges, so their
    summaries pool every sample of a (name, node). *)

val add_gauge : t -> node:int -> name:string -> (unit -> float) -> unit
(** Gauge names must be snake_case (the metrics registry enforces it). *)

val sample : t -> now:float -> unit
(** Reads every gauge once, tagging trace counter events with [now]. *)

val summaries : t -> summary list
(** One summary per gauge, in registration order: its registry gauge's
    sample count, mean (sum / samples) and max. *)

val find_summary : summary list -> node:int -> name:string -> summary option
(** Lookup in an already-extracted summary list (e.g. a run result). *)

val pp_summary : Format.formatter -> summary -> unit
