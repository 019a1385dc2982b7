(** Sparse revised simplex — the library's LP engine.

    Solves the {!Simplex} problem type.  Columns are stored
    as one flat CSC matrix and the basis inverse is kept as a product-form
    eta file (one sparse eta column per pivot), so ftran/btran cost O(nnz)
    per eta rather than O(m²) dense updates.  The file is rebuilt from the
    basis every {!Tol.default_refactor_interval} pivots with a drift check
    of the maintained basic solution.  Entering variables are priced by
    the configured {!pricing} rule — Dantzig over a small candidate list
    (partial pricing; full scans only to replenish the list or certify
    optimality) or devex reference weights — with Bland's rule as the
    anti-cycling fallback for both.  This wins when the LP has many more
    columns than rows — exactly the shape of the explicit
    channel-allocation LPs, whose column count is Σ|support| while rows
    are only n(k+1).

    All scratch state (CSC matrix, basis, x_B, FTRAN/BTRAN vectors,
    pricing arrays, the eta backing store) lives in a {!Workspace} — by
    default the calling domain's grow-only arena — so steady-state solves
    allocate only their results.  Buffers are re-initialised over the
    range used on every solve, keeping results bitwise independent of
    whatever previously ran on the domain.

    The test suite cross-validates objectives against an independent dense
    tableau solver and certifies both with {!Certify}; in degenerate cases
    the two may report different optimal vertices. *)

type basis = int array
(** A simplex basis: one internal column index per row.  Opaque to callers
    except as a warm-start token — valid only for a problem of the same
    shape (same row count, same column layout) as the solve that produced
    it.  {!solve_warm} validates before use and falls back to a cold start
    when the token does not fit. *)

type stats = {
  iterations : int;  (** total simplex pivots across both phases *)
  warm_used : bool;  (** the supplied warm basis passed validation *)
}

type pricing =
  | Dantzig
      (** steepest reduced cost over a small candidate list (partial
          pricing); cheapest per iteration *)
  | Devex
      (** Forrest–Goldfarb reference-framework weights: entering column
          maximizes d_j²/γ_j, weights reset to the unit framework at every
          refactorization.  More work per iteration (one extra BTRAN and a
          weight-update sweep per pivot) but typically far fewer pivots on
          wide LPs.  Ties break deterministically to the lowest column
          index; Bland fallback is preserved. *)

type spec = {
  s_direction : Simplex.direction;
  s_nstruct : int;  (** number of structural variables *)
  s_m : int;  (** number of rows *)
  s_c : float array;  (** objective, length [s_nstruct] *)
  s_rel : Simplex.relation array;  (** length [s_m] *)
  s_rhs : float array;  (** length [s_m] *)
  s_cstart : int array;
      (** CSC column offsets, length [s_nstruct + 1]; column [j] occupies
          [s_crow]/[s_cval] entries [s_cstart.(j) .. s_cstart.(j+1) - 1],
          rows strictly ascending, explicit zeros dropped, duplicate
          (row, var) entries pre-merged *)
  s_crow : int array;
  s_cval : float array;
}
(** A sparse problem statement — the allocation-free alternative to
    densifying {!Simplex.problem} rows.  Built directly by {!Model} for
    the column-generation masters; [s_crow]/[s_cval] may be larger than
    the live prefix (workspace buffers), only [s_cstart.(s_nstruct)]
    entries are read. *)

val solve :
  ?eps:float ->
  ?max_iters:int ->
  ?deadline:float ->
  ?pricing:pricing ->
  ?workspace:Workspace.t ->
  Simplex.problem ->
  Simplex.solution
(** Solves a dense {!Simplex.problem} (converted once to a {!spec}) from
    the all-slack start with two phases.  [deadline] is an absolute
    {!Sa_util.Timing.now} timestamp; past it the solve raises
    [Sa_util.Fail.Error (Timeout _)] (checked every 32 pivots).
    [pricing] defaults to [Dantzig]; [workspace] defaults to the calling
    domain's arena ({!Workspace.get}). *)

val solve_warm :
  ?eps:float ->
  ?max_iters:int ->
  ?warm_start:basis ->
  ?deadline:float ->
  ?inject_warm_crash:bool ->
  ?pricing:pricing ->
  ?workspace:Workspace.t ->
  Simplex.problem ->
  Simplex.solution * basis option * stats
(** Like {!solve} but optionally starting from a previously returned basis:
    the target columns are pivoted into the initial slack basis (one O(m²)
    pivot per structural basic variable — cached auction bases are mostly
    slack, so this is far cheaper than a full O(m³) refactorisation) and,
    if the result is still primal feasible for the new right-hand side,
    phase 1 and the all-slack start are skipped entirely — on
    repeat-topology auction LPs that differ only in objective coefficients
    this reduces pivots to the few needed to re-optimise.  An unusable warm
    basis (wrong size, stale indices, singular, infeasible) silently
    degrades to a cold solve.

    Returns the solution, the optimal basis to cache for the next warm
    start ([None] unless the status is [Optimal]), and pivot statistics.
    The warm-started objective equals the cold one (same LP), but in the
    presence of multiple optima the reported vertex may differ.

    [deadline] behaves as in {!solve}.  [inject_warm_crash] (default
    false) is the deterministic fault-injection hook: it forces the warm
    crash pivot-in to report failure *after* mutating solver state, so the
    rollback path runs and the solve degrades to a cold start — used by
    the resilience tests to certify that rollback restores the pristine
    state bitwise. *)

val spec_of_problem : Simplex.problem -> spec
(** Densify-free conversion of a {!Simplex.problem} into the sparse
    {!spec} form (fresh arrays, cold path) — useful to run {!solve_spec}
    or a {!Presolve} pipeline on a dense problem statement. *)

val solve_spec :
  ?eps:float ->
  ?max_iters:int ->
  ?warm_start:basis ->
  ?deadline:float ->
  ?inject_warm_crash:bool ->
  ?pricing:pricing ->
  ?workspace:Workspace.t ->
  ?attrs:(string * string) list ->
  spec ->
  Simplex.solution * basis option * stats
(** {!solve_warm} on a pre-built sparse {!spec} — the hot path used by
    {!Model.solve_with_basis}, skipping the O(m·n) dense materialisation
    entirely.  For a fixed problem and pricing rule, [solve_spec] and
    {!solve_warm} produce bitwise-identical solutions.

    [attrs] are extra key/value pairs recorded on the [lp.revised.solve]
    trace span and the [revised_solve] event — used by {!Model} to attach
    presolve reduction counts to the solve that consumed them. *)
