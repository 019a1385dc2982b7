(** Hierarchical tracing spans with monotonic timestamps.

    A span records one timed region: a process-unique [id], the [id] of
    the enclosing span on the same domain ([parent], derived from a
    domain-local ambient stack, so {!with_span} calls nest automatically —
    including under {!Sa_core.Pool.map_array}, where each spawned
    domain starts a fresh track), and string key/value [attrs].

    Completed spans are kept in a global ring buffer (most recent
    {!capacity} spans) and their durations feed a histogram in
    {!Metrics.default}, so aggregate latency is never lost to ring
    eviction.  Timestamps come from {!Sa_util.Timing.now} — monotonic,
    arbitrary origin, comparable only within a process. *)

type span = {
  id : int;  (** process-unique, > 0; allocation order, not start order *)
  parent : int option;
      (** id of the enclosing span {e on the same domain}; [None] for
          roots (including the first span of a spawned domain) *)
  name : string;
  start_s : float;  (** monotonic start, seconds *)
  dur_s : float;  (** duration, seconds *)
  domain : int;  (** domain that ran the region *)
  attrs : (string * string) list;
      (** key/value attributes, in the order they were attached *)
}

val capacity : unit -> int
(** Current ring capacity.  Defaults to 512; overridable at startup with
    the [SA_TRACE_CAPACITY] environment variable (values that do not
    parse to an int >= 1 are ignored) or at runtime with
    {!set_capacity}. *)

val set_capacity : int -> unit
(** Resize the ring.  Discards all currently buffered spans.
    @raise Invalid_argument if the capacity is < 1. *)

val with_span :
  ?hist:Metrics.histogram ->
  ?attrs:(string * string) list ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span name f] times [f ()], records a span named [name] (also on
    exception), and observes the duration in [hist] (default: histogram
    [name ^ ".seconds"] in {!Metrics.default}).  Pass a pre-created [hist]
    on hot paths to skip the registry lookup.  While [f] runs, the span is
    the ambient parent on this domain: nested [with_span] calls record it
    as their [parent], and {!add_attr} appends to its [attrs]. *)

val add_attr : string -> string -> unit
(** [add_attr key value] appends an attribute to the innermost open span
    of the calling domain (after any [?attrs] passed to {!with_span}).
    No-op when no span is open. *)

val current_span_id : unit -> int option
(** Id of the innermost open span on the calling domain, if any. *)

val recent : unit -> span list
(** Surviving spans, in recording (completion) order.  The ring evicts
    strictly oldest-recorded-first: once more than {!capacity} spans have
    been recorded, each new span overwrites the oldest surviving one, so
    [recent] always returns the last [min total capacity] spans recorded,
    oldest first.  Note that under wraparound a child span can survive its
    evicted parent (children complete, and are therefore recorded, before
    their parents): consumers must treat a dangling [parent] id as "parent
    evicted", not as corruption. *)

val clear : unit -> unit

val set_enabled : bool -> unit
(** Disable/enable ring recording (histograms still update).  On by
    default. *)
