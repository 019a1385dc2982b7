(** Batch auction engine: a queue of auction jobs sharded across OCaml 5
    domains, with cross-job caching of the expensive shared work.

    The repeated short-term license auctions of Hoefer–Kesselheim (arXiv
    1110.5753) re-solve near-identical instances: the conflict graph and
    ordering persist across rounds while bids change.  The engine exploits
    that structure twice:

    - {b topology cache} — keyed by {!Sa_core.Serialize.conflict_fingerprint},
      stores the inductive-independence ordering π, the measured ρ estimate,
      and the per-vertex backward neighbourhoods, so repeat-topology
      instances skip the NP-hard ρ computation ({!prepare});
    - {b basis cache} — keyed by {!Sa_core.Serialize.shape_fingerprint},
      stores the last optimal basis of the revised simplex, so repeat-shape
      LPs warm-start ({!Sa_lp.Revised.solve_warm}) instead of solving from
      scratch.

    Determinism: with [warm_start:false] every job's result depends only on
    the job itself, so batch results are byte-identical across any domain
    count and to sequential single-job runs.  With [warm_start:true] the LP
    objective is unchanged (the warm solve is certified optimal for the
    same LP) but degenerate instances may report a different optimal vertex
    depending on cache interleaving, and rounding then sees that vertex. *)

type algorithm =
  | Lp_round
  | Adaptive
  | Greedy_lp
  | Derand_seq
  | Oracle_round
      (** LP via {!Sa_core.Oracle_solver} column generation (seeded from
          the engine's cross-job column pool when enabled) + adaptive
          rounding.  [result.lp_iterations] counts colgen rounds, not
          pivots, for these jobs; the warm-start basis cache and pivot
          budget do not apply. *)

val algorithm_name : algorithm -> string
(** ["lp-round"], ["adaptive"], ["greedy-lp"], ["derand"], ["oracle"]. *)

val algorithm_of_name : string -> algorithm option

type job = private {
  id : int;
  instance : Sa_core.Instance.t;
  algorithm : algorithm;
  seed : int;
  trials : int;
  shape_key : string option;
}

val job :
  ?algorithm:algorithm ->
  ?seed:int ->
  ?trials:int ->
  ?shape_key:string ->
  id:int ->
  Sa_core.Instance.t ->
  job
(** Defaults: [Adaptive], seed 0, 4 trials.  [shape_key] must be the
    instance's {!Sa_core.Serialize.shape_fingerprint} when supplied; batch
    producers that know their jobs repeat a topology (e.g.
    {!Workload.expand}) pass it to amortise the fingerprint across the
    batch. *)

type job_timings = { lp_s : float; round_s : float; total_s : float }

(** {2 Robustness: tiers, policies}

    Every job runs through a degradation chain — LP + rounding first
    (retried on recoverable failures), then the value-greedy heuristic,
    then online first-fit in decreasing-value order — so a batch never
    aborts on a single bad job.  Each tier carries a certified
    approximation factor; the result records which tier served the job. *)

type tier =
  | Tier_lp  (** LP relaxation + rounding; factor {!Sa_core.Rounding.guarantee} *)
  | Tier_greedy  (** value-greedy fallback; factor k·(ρ+1) *)
  | Tier_online
      (** online first-fit, bidders in decreasing max-value order; factor n
          (the most valuable bidder is always served).  Never fails. *)

val tier_name : tier -> string
(** ["lp"], ["greedy"], ["online"]. *)

type policy = {
  deadline_s : float option;
      (** per-job wall-clock budget, monotonic; enforced inside the simplex
          pivot loops.  Expiry skips remaining retries (the budget is per
          job) and drops to the fallback chain, which ignores it. *)
  pivot_budget : int option;  (** max simplex pivots per LP attempt *)
  max_retries : int;
      (** additional LP attempts after the first; retries solve cold (no
          warm basis) with a fresh rounding seed *)
  fallback : bool;
      (** when false, jobs whose LP tier fails are reported with
          [tier = None] and an empty allocation instead of degrading *)
  faults : Faultgen.t option;  (** deterministic fault injection, tests only *)
  lp_pricing : Sa_lp.Model.pricing;
      (** simplex entering-variable rule for every LP this job solves —
          explicit masters and colgen masters alike (default [Dantzig];
          [Devex] trades more work per pivot for fewer pivots) *)
  lp_presolve : bool;
      (** run the {!Sa_lp.Presolve} reduction/scaling pipeline in front of
          every LP this job solves (default [false]).  Solutions, duals,
          prices and certificates come back in original coordinates via
          the exact postsolve, so results agree with the unpresolved solve
          within [Tol]. *)
}

val default_policy : policy
(** No deadline, no pivot budget, 1 retry, fallback on, no faults. *)

val policy :
  ?deadline_s:float ->
  ?pivot_budget:int ->
  ?max_retries:int ->
  ?fallback:bool ->
  ?faults:Faultgen.t ->
  ?lp_pricing:Sa_lp.Model.pricing ->
  ?lp_presolve:bool ->
  unit ->
  policy
(** Validating constructor over {!default_policy}'s defaults. *)

type result = {
  job_id : int;
  allocation : Sa_core.Allocation.t;
  welfare : float;
  lp_objective : float;  (** 0 when the LP tier never completed *)
  lp_iterations : int;  (** simplex pivots this job paid for *)
  warm_start : bool;  (** LP was warm-started from a cached basis *)
  tier : tier option;  (** [None] = failed (only with [fallback = false]) *)
  guarantee : float;
      (** certified approximation factor of the serving tier; [infinity]
          for failed jobs *)
  retries : int;  (** LP attempts beyond the first *)
  failures : Failure.t list;  (** chronological; empty on a clean solve *)
  timings : job_timings;
}

type t
(** An engine instance: configuration plus mutable caches.  Safe to share
    across domains (cache access is mutex-protected). *)

val create : ?warm_start:bool -> ?column_pool:bool -> unit -> t
(** [warm_start] (default true) enables the LP basis cache.
    [column_pool] (default true) enables the cross-job
    {!Sa_core.Oracle_solver.Column_pool} used by {!Oracle_round} jobs:
    generated columns are interned per conflict fingerprint (bounded LRU)
    and seed later same-topology colgen solves.  Like the basis cache,
    pool hit {e counts} depend on job interleaving, but the certified LP
    optimum of every job is unchanged — seeding moves colgen's starting
    point, not its fixed point.  Exact repeats (same fingerprint {e and}
    bids) reproduce the cold solve byte for byte: the seeded master holds
    the donor's full column set in generation order, so the final master
    LP is identical.  Revalued repeats agree to solver tolerance — the
    seeded master carries extra columns, so the simplex may walk a
    different arithmetic path to the same optimum. *)

val warm_start_enabled : t -> bool
val column_pool_enabled : t -> bool

type topology = {
  ordering : Sa_graph.Ordering.t;
  rho : float;
  backward : int list array;
}

val topology_of_conflict : ?key:string -> t -> Sa_core.Instance.conflict -> topology
(** Cached (ordering π, ρ, backward neighbourhoods) for a conflict
    structure: degeneracy ordering + measured ρ for unweighted graphs,
    identity ordering + weighted ρ for edge-weighted ones, and the natural
    per-channel generalisations.

    [key] overrides the cache key (default:
    {!Sa_core.Serialize.conflict_fingerprint}, which serialises the whole
    graph).  Geometric producers pass
    {!Sa_geom.Spatial.fingerprint} of the placement instead — O(n) and
    available before the conflict graph is even built.  The caller must
    guarantee the key determines the conflict structure. *)

val prepare :
  ?key:string -> t -> conflict:Sa_core.Instance.conflict -> k:int ->
  Sa_val.Valuation.t array -> Sa_core.Instance.t
(** Build an instance for fresh bidders over a (possibly already seen)
    conflict structure, reusing the cached topology when available — the
    repeated-auction entry point.  [key] as in {!topology_of_conflict}. *)

val run_job : t -> job -> result
(** [run_job_robust] under {!default_policy}: LP (revised simplex,
    warm-started when the cache has a same-shape basis) then the chosen
    allocation algorithm, seeded from [job.seed] only; one cold retry and
    the greedy/online fallback chain on failure — so it never raises on a
    solver failure. *)

val run_job_robust : t -> policy -> job -> result
(** Solve one job under an explicit robustness policy.  The degradation
    chain guarantees a feasible allocation for every job unless
    [policy.fallback] is false.  A job whose bids no longer pass
    {!Sa_val.Valuation.validate} (valuation arrays are mutable, so e.g. a
    NaN or infinite bid written after {!Sa_core.Instance.make}) is not
    served by any tier: its result is failed, with a single
    [Malformed_job] failure.  Fault-injection draws (when
    [policy.faults] is set) are a pure function of [(seed, job.id,
    attempt)], never of the executing domain. *)

type summary = {
  jobs : int;
  total_welfare : float;
  total_lp_objective : float;
  lp_iterations : int;
  warm_hits : int;
  lp_seconds : float;
  round_seconds : float;
  wall_seconds : float;
  topology_hits : int;
  topology_misses : int;
  basis_entries : int;
  served_lp : int;  (** jobs served by the LP tier *)
  served_greedy : int;
  served_online : int;
  failed : int;  (** jobs with [tier = None] (only with [fallback=false]) *)
  retries : int;  (** total LP attempts beyond the first, batch-wide *)
  deadline_hits : int;  (** total [Timeout] failures recorded *)
}

val run_batch :
  ?domains:int -> ?chunk:int -> ?policy:policy -> t -> job list ->
  result array * summary
(** Run every job (default sequentially; [domains > 1] schedules on the
    persistent domain pool via {!Sa_core.Pool.map_array}; [chunk]
    fixes the pool's self-scheduling chunk size, default adaptive).
    [results.(i)] corresponds to the i-th job of the input list regardless
    of scheduling.  [policy] defaults to {!default_policy}. *)

val pp_summary : Format.formatter -> summary -> unit

val summary_to_json : ?extra:(string * string) list -> summary -> string
(** One JSON object (no external deps) — embedded in [BENCH_engine.json]
    and [auction serve --json].  [extra] appends [(key, json_value)] pairs
    verbatim after the summary fields (e.g. an embedded telemetry
    snapshot); keys must be plain identifiers, values already-valid
    JSON. *)

val results_to_json : result array -> string
(** JSON array with one record per job — including failed jobs, which get
    [{"status":"failed","tier":"none",...}] rather than being omitted.
    Deliberately timing-free: two runs with the same workload, seed and
    fault pattern serialise to identical bytes, the determinism contract
    [scripts/check.sh] diffs on. *)
