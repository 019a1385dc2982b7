module Bundle = Sa_val.Bundle
module Valuation = Sa_val.Valuation
module Ordering = Sa_graph.Ordering
module Model = Sa_lp.Model
module Simplex = Sa_lp.Simplex
module Floats = Sa_util.Floats

type column = { bidder : int; bundle : Bundle.t; x : float }

type fractional = { columns : column array; objective : float }

let by_bidder frac ~n =
  let per = Array.make n [] in
  Array.iter
    (fun { bidder; bundle; x } -> per.(bidder) <- (bundle, x) :: per.(bidder))
    frac.columns;
  per

let column_value inst { bidder; bundle; x } =
  Valuation.value inst.Instance.bidders.(bidder) bundle *. x

let of_allocation inst alloc =
  let columns =
    Array.to_list alloc
    |> List.mapi (fun v bundle -> { bidder = v; bundle; x = 1.0 })
    |> List.filter (fun c -> not (Bundle.is_empty c.bundle))
    |> Array.of_list
  in
  let objective =
    Array.fold_left (fun acc c -> acc +. column_value inst c) 0.0 columns
  in
  { columns; objective }

(* Channel-j interference mass of [columns] into vertex [v]:
   Σ_{u: π(u)<π(v)} Σ_{T∋j} w̄_j(u,v)·x_{u,T}. *)
let interference_mass inst columns ~v ~channel =
  let pi = inst.Instance.ordering in
  Array.fold_left
    (fun acc { bidder = u; bundle; x } ->
      if u <> v && Ordering.precedes pi u v && Bundle.mem channel bundle then
        acc +. (Instance.wbar inst ~channel u v *. x)
      else acc)
    0.0 columns

(* The feasibility checker deliberately stays all-pairs over [wbar]: it
   shares nothing with [build]'s neighbour walk, so a bug in
   [Instance.iter_conflicts] cannot hide in both. *)
let is_lp_feasible ?(eps = Floats.default_eps) inst frac =
  let n = Instance.n inst and k = inst.Instance.k in
  let nonneg = Array.for_all (fun c -> c.x >= -.eps) frac.columns in
  let mass = Array.make n 0.0 in
  Array.iter (fun c -> mass.(c.bidder) <- mass.(c.bidder) +. c.x) frac.columns;
  let unit_ok = Array.for_all (fun m -> Floats.leq ~eps m 1.0) mass in
  let interference_ok = ref true in
  for v = 0 to n - 1 do
    for channel = 0 to k - 1 do
      let m = interference_mass inst frac.columns ~v ~channel in
      if not (Floats.leq ~eps m inst.Instance.rho) then interference_ok := false
    done
  done;
  nonneg && unit_ok && !interference_ok

let fractional_value_of_bidder inst frac v =
  Array.fold_left
    (fun acc c -> if c.bidder = v then acc +. column_value inst c else acc)
    0.0 frac.columns

type solve_stats = {
  basis : Sa_lp.Revised.basis option;
  iterations : int;
  warm_start_used : bool;
}

(* LP (1) as a model.  Columns are created bidder by bidder and grouped per
   bidder, so row (v, j) is gathered from v's earlier-ordered conflict
   neighbours' columns containing j: O(Σ_v Σ_j Σ_{u∈N_j(v)} |cols(u)|)
   instead of a scan over every column per row.  Rows are numbered as the
   all-pairs formulation numbers them — unit-mass rows in bidder order,
   then interference rows v-major, channel-minor, empty ones skipped — and
   each row lists its variables in descending order, so the model and its
   spec are bitwise those of the all-pairs scan. *)
let build ?(zeroed = []) inst =
  let n = Instance.n inst and k = inst.Instance.k in
  let pi = inst.Instance.ordering in
  let m = Model.create Simplex.Maximize in
  (* [own.(v)]: v's (v, bundle, var) columns, vars ascending *)
  let own =
    Array.init n (fun v ->
        let zero = List.mem v zeroed in
        Valuation.support inst.Instance.bidders.(v) ~k
        (* availability masks: a bidder may only receive channels open to it *)
        |> List.filter (fun (bundle, _) ->
               Bundle.equal bundle (Instance.restrict_bundle inst ~bidder:v bundle))
        |> List.map (fun (bundle, value) ->
               (v, bundle, Model.add_var m ~obj:(if zero then 0.0 else value)))
        |> Array.of_list)
  in
  (* Unit-mass rows. *)
  Array.iter
    (fun mine ->
      if mine <> [||] then
        ignore
          (Model.add_row m
             (Array.fold_left (fun acc (_, _, var) -> (var, 1.0) :: acc) [] mine)
             Simplex.Le 1.0))
    own;
  (* Interference rows, skipping empty ones. *)
  for v = 0 to n - 1 do
    for channel = 0 to k - 1 do
      let coeffs = ref [] in
      Instance.iter_conflicts inst ~channel v (fun u w ->
          if Ordering.precedes pi u v then
            Array.iter
              (fun (_, bundle, var) ->
                if Bundle.mem channel bundle then coeffs := (var, w) :: !coeffs)
              own.(u));
      if !coeffs <> [] then
        ignore (Model.add_row m !coeffs Simplex.Le inst.Instance.rho)
    done
  done;
  (m, Array.concat (Array.to_list own))

let solve_explicit_stats ?engine:_ ?zeroed ?warm_start ?max_iters ?deadline
    ?inject_warm_crash ?pricing ?presolve inst =
  let m, cols = build ?zeroed inst in
  let ws =
    Model.solve_with_basis ?warm_start ?max_iters ?deadline
      ?inject_warm_crash ?pricing ?presolve m
  in
  let sol = ws.Model.solution in
  let numerical detail =
    Sa_util.Fail.raise_
      (Sa_util.Fail.Solver_numerical { stage = "lp.explicit"; detail })
  in
  (match sol.Model.status with
  | Simplex.Optimal -> ()
  | Simplex.Infeasible -> numerical "LP reported infeasible (packing LP is always feasible)"
  | Simplex.Unbounded -> numerical "LP reported unbounded (objective is bounded by Σ v_max)"
  | Simplex.Iteration_limit -> numerical "simplex iteration limit reached");
  let columns =
    Array.to_list cols
    |> List.filter_map (fun (v, bundle, var) ->
           let x = sol.Model.value var in
           if x > 1e-10 then Some { bidder = v; bundle; x } else None)
    |> Array.of_list
  in
  ( { columns; objective = sol.Model.objective },
    {
      basis = ws.Model.basis;
      iterations = ws.Model.stats.Sa_lp.Revised.iterations;
      warm_start_used = ws.Model.stats.Sa_lp.Revised.warm_used;
    } )

let solve_explicit ?zeroed inst = fst (solve_explicit_stats ?zeroed inst)

let scale frac factor =
  if factor < 0.0 || factor > 1.0 then invalid_arg "Lp_relaxation.scale: factor in [0,1]";
  {
    columns = Array.map (fun c -> { c with x = c.x *. factor }) frac.columns;
    objective = frac.objective *. factor;
  }
