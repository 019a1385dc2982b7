(** Incremental LP model builder on top of {!Revised}.

    Callers register variables (all implicitly [≥ 0]) and sparse constraint
    rows, then [solve].  Variable and row handles are plain ints, stable
    across the model's lifetime, so callers can keep maps from model objects
    (bidder/bundle pairs, (vertex, channel) constraints) to handles. *)

type t

type var = int
type row = int

val create : Simplex.direction -> t

val add_var : t -> obj:float -> var
(** New variable with the given objective coefficient. *)

val add_row : t -> (var * float) list -> Simplex.relation -> float -> row
(** [add_row t coeffs rel rhs] adds [Σ coeff·x rel rhs].  Repeated variables
    in [coeffs] are summed. *)

val add_to_row : t -> row -> var -> float -> unit
(** Add [coeff] to the entry of [var] in an existing row, in O(1) — lets
    column generation extend previously created constraints with new
    variables. *)

val num_vars : t -> int
val num_rows : t -> int

val to_spec : Workspace.t -> t -> Revised.spec
(** The sparse column-major statement {!solve_with_basis} hands to
    {!Revised}: duplicate (row, var) entries pre-summed from [0.0], zero
    sums dropped, each column's rows ascending.  Its
    arrays are the workspace's {!Model} slots, so they stay valid only
    until the next [to_spec] on the same workspace. *)

type solution = {
  status : Simplex.status;
  objective : float;
  value : var -> float;
  dual : row -> float;
}

type engine = Revised_sparse
(** {!Revised}, the only simplex engine.  The type remains so existing
    callers that name the engine still compile. *)

type pricing = Revised.pricing = Dantzig | Devex
(** Re-export of {!Revised.pricing} so engine-policy code can name the
    rule without depending on {!Revised} directly. *)

val solve :
  ?eps:float ->
  ?max_iters:int ->
  ?deadline:float ->
  ?pricing:pricing ->
  ?presolve:bool ->
  t ->
  solution
(** Runs {!Revised} on the current model.  The model remains usable (more
    variables/rows may be added and [solve] called again — each call solves
    from scratch).  [pricing] selects the entering-variable rule (default
    [Dantzig]); [presolve] (default [false]) runs the {!Presolve}
    reduction/scaling pipeline first. *)

type warm_solution = {
  solution : solution;
  basis : Revised.basis option;
      (** optimal basis to reuse as a warm start for a same-shape model
          ([None] for non-optimal solves) *)
  stats : Revised.stats;
}

val solve_with_basis :
  ?eps:float ->
  ?max_iters:int ->
  ?warm_start:Revised.basis ->
  ?deadline:float ->
  ?inject_warm_crash:bool ->
  ?pricing:pricing ->
  ?workspace:Workspace.t ->
  ?presolve:bool ->
  t ->
  warm_solution
(** {!solve}, exposing the warm-start machinery of {!Revised.solve_warm}:
    pass the basis returned by a previous solve of a same-shape model to
    skip the cold start.  An invalid basis degrades silently to a cold
    solve.

    The problem is staged as a sparse {!Revised.spec} straight from the
    row lists — no dense materialisation — using [workspace] (default: the
    calling domain's arena, {!Workspace.get}), which is also handed to the
    solver for its scratch state; a column-generation loop therefore
    re-solves with allocation proportional to the columns added since the
    last round, not to the matrix size.  [pricing] selects the
    entering-variable rule (default [Dantzig]).

    The basis token is tied to the model's variable/row layout, so callers
    must key caches on a fingerprint of that layout (see
    {!Sa_core.Serialize}).

    [deadline] is an absolute {!Sa_util.Timing.now} timestamp enforced
    inside the pivot loops ([Sa_util.Fail.Error (Timeout _)] past it);
    [inject_warm_crash] forwards {!Revised.solve_warm}'s fault-injection
    hook.

    [presolve] (default [false]) runs {!Presolve.reduce} on the staged
    spec, solves the reduced LP, and maps the solution, duals, and basis
    back to the model's own spaces via the exact postsolve — the returned
    solution and basis are always in original model coordinates, and
    reduction counts are attached as [presolve_*] attrs on the solve
    span/event. *)
