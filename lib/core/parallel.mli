(** Multicore execution of the embarrassingly parallel stages (OCaml 5
    domains).

    Two stages dominate wall-clock time and parallelise trivially:
    best-of-R randomized rounding (independent trials) and the
    derandomization's seed-family enumeration (independent seeds).  Both
    are provided here with deterministic results: the parallel
    derandomization returns exactly the sequential scan's allocation, and parallel rounding with [domains·trials_per_domain]
    trials follows the same distribution as the sequential best-of-R.

    Speedup tracks the machine's core count
    ({!Domain.recommended_domain_count}); on a single-core host the code
    still runs correctly, just without gain. *)

val solve_rounding :
  ?domains:int ->
  ?trials_per_domain:int ->
  seed:int ->
  Instance.t ->
  Lp_relaxation.fractional ->
  Allocation.t
(** Best feasible allocation over [domains × trials_per_domain] (default
    [Pool.default_domains × 4]) independent {!Rounding.solve_adaptive} trials,
    each domain on its own deterministic PRNG stream derived from [seed]. *)

val derand1 :
  ?domains:int -> Instance.t -> Lp_relaxation.fractional -> Allocation.t
(** Parallel {!Derand.algorithm1_derand}: one {!Derand.plan}, its [p²]
    seed family scanned as [domains] contiguous ranges of [a] and reduced
    first-wins in range order — the same allocation as the sequential
    version at every domain count. *)
