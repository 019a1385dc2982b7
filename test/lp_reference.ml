(* Reference builders that scan every pair, kept as oracles for the
   neighbour-walk builders in the library.

   [lp1] materialises LP (1) the straightforward way: one interference row
   per (vertex, channel), filled by scanning every column and asking
   [Instance.wbar] for its weight.  It costs O(n·k·|cols|) and shares
   nothing with [Instance.iter_conflicts], which is the point. *)

module Bundle = Sa_val.Bundle
module Valuation = Sa_val.Valuation
module Ordering = Sa_graph.Ordering
module Model = Sa_lp.Model
module Simplex = Sa_lp.Simplex
module Instance = Sa_core.Instance

let lp1 ?(zeroed = []) inst =
  let n = Instance.n inst and k = inst.Instance.k in
  let pi = inst.Instance.ordering in
  let m = Model.create Simplex.Maximize in
  let cols = ref [] in
  for v = 0 to n - 1 do
    let support =
      Valuation.support inst.Instance.bidders.(v) ~k
      |> List.filter (fun (bundle, _) ->
             Bundle.equal bundle (Instance.restrict_bundle inst ~bidder:v bundle))
    in
    let zero = List.mem v zeroed in
    List.iter
      (fun (bundle, value) ->
        let obj = if zero then 0.0 else value in
        let var = Model.add_var m ~obj in
        cols := (v, bundle, var) :: !cols)
      support
  done;
  let cols = Array.of_list (List.rev !cols) in
  let per_bidder_vars = Array.make n [] in
  Array.iter
    (fun (v, _, var) -> per_bidder_vars.(v) <- (var, 1.0) :: per_bidder_vars.(v))
    cols;
  for v = 0 to n - 1 do
    if per_bidder_vars.(v) <> [] then
      ignore (Model.add_row m per_bidder_vars.(v) Simplex.Le 1.0)
  done;
  for v = 0 to n - 1 do
    for channel = 0 to k - 1 do
      let coeffs = ref [] in
      Array.iter
        (fun (u, bundle, var) ->
          if u <> v && Ordering.precedes pi u v && Bundle.mem channel bundle then begin
            let w = Instance.wbar inst ~channel u v in
            if w > 0.0 then coeffs := (var, w) :: !coeffs
          end)
        cols;
      if !coeffs <> [] then
        ignore (Model.add_row m !coeffs Simplex.Le inst.Instance.rho)
    done
  done;
  (m, cols)

(* Every (u, wbar) pair [Instance.iter_conflicts] must produce for [v] on
   [channel], ascending in [u]. *)
let conflicts inst ~channel v =
  List.init (Instance.n inst) Fun.id
  |> List.filter_map (fun u ->
         if u = v then None
         else
           let w = Instance.wbar inst ~channel u v in
           if w > 0.0 then Some (u, w) else None)
