(** Domain-safe metrics registry: counters, gauges and histograms backed by
    [Atomic], exact under {!Sa_core.Pool.map_array} sharding.

    Metric names use the scheme [<library>.<component>.<quantity>], lower
    case, [a-z0-9._] only (e.g. ["lp.revised.pivots"]).  Registration is
    idempotent: requesting a name that already exists returns the existing
    metric; requesting it with a different kind (or different histogram
    buckets) raises [Invalid_argument].  Updates are lock-free; snapshots
    are a per-metric-atomic (not globally consistent) cut. *)

type t
(** A registry.  Most code uses {!default}; tests create private ones. *)

val create : unit -> t

val default : t
(** The process-wide registry.  All well-known metrics (see DESIGN.md
    "Observability") are pre-registered here at module initialisation, so
    snapshots always carry the full schema. *)

(** {1 Counters} — monotonically increasing integers. *)

type counter

val counter : ?registry:t -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
(** [add c n] requires [n >= 0]. *)

val counter_name : counter -> string
val counter_value : counter -> int

(** {1 Gauges} — instantaneous float values. *)

type gauge

val gauge : ?registry:t -> string -> gauge
val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
val gauge_name : gauge -> string
val gauge_value : gauge -> float

(** {1 Histograms} — bucketed observations (durations in seconds by
    default). *)

type histogram

val default_time_buckets : float array
(** [1e-5 .. 10] seconds, decade spacing. *)

val histogram : ?registry:t -> ?buckets:float array -> string -> histogram
(** [buckets] are upper bounds, strictly increasing; an implicit [+inf]
    bucket is appended.  Defaults to {!default_time_buckets}. *)

val observe : histogram -> float -> unit
val histogram_name : histogram -> string
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

(** {1 Snapshots} *)

type hist_view = { le : float array; counts : int array; sum : float; count : int }

type view = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;
  histograms : (string * hist_view) list;
}

val snapshot : ?registry:t -> unit -> view

val find_counter : view -> string -> int option
val find_gauge : view -> string -> float option
val find_histogram : view -> string -> hist_view option

val reset : ?registry:t -> unit -> unit
(** Zero every metric (registrations are kept).  Intended for benches and
    tests that attribute counts to a phase. *)

(** {1 Well-known schema}

    Names pre-registered in {!default} at module initialisation, so empty
    snapshots still carry them.  {!help} returns the one-line description
    the Prometheus exporter renders as a [# HELP] line. *)

val well_known_counters : string list
val well_known_gauges : string list
val well_known_histograms : string list

val help : string -> string option
(** Description of a well-known metric; [None] for ad-hoc names. *)
