type var = int
type row = int

type row_data = {
  mutable coeffs : (var * float) list; (* newest entry first *)
  relation : Simplex.relation;
  rhs : float;
}

(* Variables and rows live in capacity-doubling arrays (the first [nvars] /
   [nrows] slots are live), so [add_to_row] reaches its row in O(1). *)
type t = {
  direction : Simplex.direction;
  mutable objs : float array;
  mutable nvars : int;
  mutable rows : row_data array;
  mutable nrows : int;
}

let no_row = { coeffs = []; relation = Simplex.Le; rhs = 0.0 }

let create direction =
  { direction; objs = [||]; nvars = 0; rows = [||]; nrows = 0 }

let grown a len fill =
  if len < Array.length a then a
  else begin
    let b = Array.make (max 16 (2 * Array.length a)) fill in
    Array.blit a 0 b 0 len;
    b
  end

let add_var t ~obj =
  let v = t.nvars in
  t.objs <- grown t.objs v 0.0;
  t.objs.(v) <- obj;
  t.nvars <- v + 1;
  v

let check_var t v =
  if v < 0 || v >= t.nvars then invalid_arg "Model: variable out of range"

let add_row t coeffs relation rhs =
  List.iter (fun (v, _) -> check_var t v) coeffs;
  let r = t.nrows in
  t.rows <- grown t.rows r no_row;
  t.rows.(r) <- { coeffs; relation; rhs };
  t.nrows <- r + 1;
  r

let add_to_row t r v coeff =
  check_var t v;
  if r < 0 || r >= t.nrows then invalid_arg "Model.add_to_row: row out of range";
  let data = t.rows.(r) in
  data.coeffs <- (v, coeff) :: data.coeffs

let num_vars t = t.nvars
let num_rows t = t.nrows

type solution = {
  status : Simplex.status;
  objective : float;
  value : var -> float;
  dual : row -> float;
}

type engine = Revised_sparse

type pricing = Revised.pricing = Dantzig | Devex

type warm_solution = {
  solution : solution;
  basis : Revised.basis option;
  stats : Revised.stats;
}

(* Workspace slot assignments (slots 16..23 of each typed pool belong to
   this module; see Workspace docs). *)
module Slot = struct
  (* float slots *)
  let obj = 16
  let rhs = 17
  let acc = 18
  let cval = 19

  (* int slots *)
  let stamp = 16
  let touched = 17
  let cstart = 18
  let crow = 19
  let next = 20
end

(* Build the sparse column-major spec directly from the row lists, into
   workspace buffers, so the column-generation hot path never densifies.

   Duplicate (row, var) entries are summed starting from 0.0 in list
   order, and an entry is kept iff the merged value is nonzero. *)
let to_spec ws t =
  let nvars = t.nvars in
  let m = t.nrows in
  let rows_arr = t.rows in
  let c = Workspace.floats ws ~slot:Slot.obj nvars in
  Array.blit t.objs 0 c 0 nvars;
  let rel = Array.make m Simplex.Le in
  let rhs = Workspace.floats ws ~slot:Slot.rhs m in
  for i = 0 to m - 1 do
    rel.(i) <- rows_arr.(i).relation;
    rhs.(i) <- rows_arr.(i).rhs
  done;
  let stamp = Workspace.ints ws ~slot:Slot.stamp nvars in
  Array.fill stamp 0 nvars (-1);
  let acc = Workspace.floats ws ~slot:Slot.acc nvars in
  let touched = Workspace.ints ws ~slot:Slot.touched nvars in
  (* [merge_row tag i k] folds row [i]'s duplicate entries (0.0-seeded, in
     list order) and calls [k v value] for each var with a nonzero merged
     value.  [tag] keeps the two passes' stamps distinct without clearing
     the stamp array between them. *)
  let merge_row tag i k =
    let rd = rows_arr.(i) in
    let n = ref 0 in
    List.iter
      (fun (v, coeff) ->
        if stamp.(v) = tag then acc.(v) <- acc.(v) +. coeff
        else begin
          stamp.(v) <- tag;
          acc.(v) <- 0.0 +. coeff;
          touched.(!n) <- v;
          incr n
        end)
      rd.coeffs;
    for p = 0 to !n - 1 do
      let v = touched.(p) in
      if acc.(v) <> 0.0 then k v acc.(v)
    done
  in
  let cstart = Workspace.ints ws ~slot:Slot.cstart (nvars + 1) in
  Array.fill cstart 0 (nvars + 1) 0;
  for i = 0 to m - 1 do
    merge_row i i (fun v _ -> cstart.(v + 1) <- cstart.(v + 1) + 1)
  done;
  for j = 1 to nvars do
    cstart.(j) <- cstart.(j) + cstart.(j - 1)
  done;
  let nnz = cstart.(nvars) in
  let crow = Workspace.ints ws ~slot:Slot.crow (max 1 nnz) in
  let cval = Workspace.floats ws ~slot:Slot.cval (max 1 nnz) in
  let next = Workspace.ints ws ~slot:Slot.next nvars in
  Array.blit cstart 0 next 0 nvars;
  (* rows visited ascending, so each column's entries come out
     rows-ascending as the CSC contract requires *)
  for i = 0 to m - 1 do
    merge_row (i + m) i (fun v value ->
        let p = next.(v) in
        crow.(p) <- i;
        cval.(p) <- value;
        next.(v) <- p + 1)
  done;
  {
    Revised.s_direction = t.direction;
    s_nstruct = nvars;
    s_m = m;
    s_c = c;
    s_rel = rel;
    s_rhs = rhs;
    s_cstart = cstart;
    s_crow = crow;
    s_cval = cval;
  }

let wrap t sol =
  {
    status = sol.Simplex.status;
    objective = sol.Simplex.objective;
    value =
      (fun v ->
        check_var t v;
        sol.Simplex.x.(v));
    dual =
      (fun r ->
        if r < 0 || r >= t.nrows then invalid_arg "Model: row out of range";
        sol.Simplex.duals.(r));
  }

let presolve_attrs (info : Presolve.info) =
  [
    ("presolve_rows_removed", string_of_int info.Presolve.rows_removed);
    ("presolve_cols_removed", string_of_int info.Presolve.cols_removed);
    ("presolve_duplicates", string_of_int info.Presolve.duplicates);
    ("presolve_scaling_passes", string_of_int info.Presolve.scaling_passes);
  ]

let no_presolve_attrs =
  [
    ("presolve_rows_removed", "0");
    ("presolve_cols_removed", "0");
    ("presolve_duplicates", "0");
    ("presolve_scaling_passes", "0");
  ]

let solve_with_basis ?eps ?max_iters ?warm_start ?deadline ?inject_warm_crash
    ?pricing ?workspace ?(presolve = false) t =
  let ws = match workspace with Some ws -> ws | None -> Workspace.get () in
  let spec = to_spec ws t in
  let revised ?warm_start ?attrs spec =
    Revised.solve_spec ?eps ?max_iters ?warm_start ?deadline ?inject_warm_crash
      ?pricing ~workspace:ws ?attrs spec
  in
  if not presolve then
    let sol, basis, stats = revised ?warm_start spec in
    { solution = wrap t sol; basis; stats }
  else
    match Presolve.reduce ~workspace:ws spec with
    | None ->
        let sol, basis, stats = revised ?warm_start ~attrs:no_presolve_attrs spec in
        { solution = wrap t sol; basis; stats }
    | Some (reduced, pr) ->
        (* warm-start tokens stay in original internal index space at the
           API boundary: translate in, solve reduced, translate the optimal
           basis back out so callers (engine basis cache, colgen) never see
           reduced indices. *)
        let warm_start = Option.bind warm_start (Presolve.map_basis_in pr) in
        let sol, rbasis, stats =
          revised ?warm_start ~attrs:(presolve_attrs (Presolve.info pr)) reduced
        in
        let sol = Presolve.postsolve pr sol in
        let basis = Option.bind rbasis (Presolve.map_basis_out pr) in
        { solution = wrap t sol; basis; stats }

let solve ?eps ?max_iters ?deadline ?pricing ?presolve t =
  (solve_with_basis ?eps ?max_iters ?deadline ?pricing ?presolve t).solution
