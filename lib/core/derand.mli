(** Derandomization by pairwise independence (Section 5 remark).

    The Theorem-3 analysis uses randomness only through (a) the marginal law
    of each bidder's rounded bundle and (b) a first-moment (Markov) bound on
    a sum over *pairs* of bidders — so pairwise-independent choices preserve
    the expectation bound.  This module replaces the independent draws with
    the classic affine family over a prime field:

    [h_{a,b}(v) = ((a·v + b) mod p) / p ∈ \[0,1)],  [(a,b) ∈ Z_p × Z_p],

    which is pairwise independent across bidders, and *enumerates the whole
    seed family*, keeping the best feasible allocation.  Since the family
    realises the expectation bound on average, its best member is
    deterministic and at least as good — up to the [1/p] quantisation of the
    rounding probabilities, which the enumeration makes explicit rather than
    hidden in an ε.

    Cost: an O(n·p) plan (each bidder's pick and its value for every
    residue [r ∈ \[0, p)], plus the earlier-ordered conflict neighbours,
    which a dense weight matrix yields in O(n²)),
    then [p²] allocation-free scans of O(n + Σ_v |earlier N(v)|) each; the
    edge-weighted path also runs Algorithm 3 once per seed.  An allocation
    is built only when a seed strictly beats the incumbent, and the result
    is bit for bit the allocation that a full rounding pass per seed
    ({!Rounding.round_with_uniforms}) would choose.  Use on
    small-to-moderate instances (the Lavi–Swamy decomposition, experiment
    E6, is the intended consumer).

    Both entry points run in a [core.derand.solve] span (histogram
    [core.derand.solve.seconds]) carrying [candidates], [kind] and
    [alloc_bytes]; [core.derand.candidates] counts [p²] per solve. *)

val prime : int
(** 101 — the field size; probabilities are quantised to multiples of 1/101. *)

val algorithm1_derand : Instance.t -> Lp_relaxation.fractional -> Allocation.t
(** Deterministic counterpart of {!Rounding.algorithm1} (unweighted
    instances): enumerates the seed family and returns the best feasible
    allocation found.  Always feasible. *)

val algorithm23_derand : Instance.t -> Lp_relaxation.fractional -> Allocation.t
(** Deterministic counterpart of Algorithms 2+3 (edge-weighted instances). *)

(** {2 Seed-range scans}

    The pieces {!Parallel.derand1} fans out: one plan per job, scanned
    over disjoint ranges of [a]. *)

type plan
(** One job's derandomization, compiled: read-only, so several domains
    may scan it at once.  Its tables live in the building domain's
    {!Sa_lp.Workspace} (slots 32–35), so a plan is valid until the next
    [plan] built on that domain. *)

val plan : Instance.t -> Lp_relaxation.fractional -> plan
(** Compile an unweighted (Algorithm 1) or edge-weighted (Algorithms 2+3)
    instance.  @raise Invalid_argument on per-channel instances. *)

val scan : plan -> a_lo:int -> a_hi:int -> Allocation.t * float
(** [scan plan ~a_lo ~a_hi] scores the seeds [(a, b)] with
    [a_lo ≤ a < a_hi] and [0 ≤ b < p] in (a, b) order, starting from the
    empty allocation, and returns the incumbent and its welfare; a seed
    replaces the incumbent only when strictly better.  Scanning
    consecutive ranges and keeping the first of the best results
    reproduces [scan plan ~a_lo:0 ~a_hi:prime].
    @raise Invalid_argument unless [0 ≤ a_lo ≤ a_hi ≤ prime]. *)
