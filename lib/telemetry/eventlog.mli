(** Append-only decision event log (JSONL).

    Solver layers record {e decisions} — job accepted, LP solved, fault
    absorbed, retry scheduled, tier chosen, guarantee certified — as
    structured events.  Events are timing-free by design: every field must
    be a deterministic function of the job, so the rendered log is a
    reproducibility artifact.

    Events are only captured while a sink is {!install}ed {e and} an
    ambient job scope ({!with_job}) is active on the emitting domain.
    Each event carries the ambient job id and a per-job emission index;
    {!to_jsonl} merges events in the fixed order (job id, index) and
    assigns monotonic [seq] numbers positionally, so same-seed logs are
    byte-identical at any [--domains] value (jobs never migrate domains
    under {!Sa_core.Pool.map_array}).  Events emitted with no ambient
    job are dropped and counted in [telemetry.events.dropped]. *)

type field = Bool of bool | Int of int | Float of float | Str of string

type event = {
  job : int;
  index : int;  (** per-job emission order, 0-based *)
  kind : string;
  fields : (string * field) list;
}

type t
(** A mutable, thread-safe event collection. *)

val create : unit -> t

val install : t option -> unit
(** Set (or with [None], clear) the global sink that {!emit} appends to. *)

val installed : unit -> t option

val with_job : int -> (unit -> 'a) -> 'a
(** [with_job id f] runs [f] with [id] as the ambient job on this domain;
    restores the previous scope afterwards (also on exception). *)

val current_job : unit -> int option

val emit : string -> (string * field) list -> unit
(** [emit kind fields] appends an event for the ambient job.  No-op when
    no sink is installed; counted as dropped when a sink is installed but
    no job scope is active. *)

val events : t -> event list
(** All captured events in the canonical merge order: ascending (job id,
    emission index). *)

val to_jsonl : t -> string
(** Render {!events} as JSON Lines.  Each line is an object
    [{"seq":N,"job":J,"kind":"...",...fields}] with [seq] assigned
    positionally from the canonical order; floats use shortest
    round-trip rendering (non-finite floats become [null]). *)

val clear : t -> unit
