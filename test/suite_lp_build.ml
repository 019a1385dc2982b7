(* LP construction from conflict-neighbour lists.

   [Lp_relaxation.build] and the colgen master walk each vertex's conflict
   neighbours instead of scanning every pair.  These tests hold the walk to
   the all-pairs formulation ([Lp_reference]): the same neighbours and
   weights from [Instance.iter_conflicts], and bit for bit the same LP (1)
   handed to the simplex, over every conflict kind, both weighted-graph
   representations, one-directional weights, availability masks and
   zeroed bidders. *)

module Prng = Sa_util.Prng
module Bundle = Sa_val.Bundle
module Vgen = Sa_val.Gen
module Graph = Sa_graph.Graph
module Weighted = Sa_graph.Weighted
module Ordering = Sa_graph.Ordering
module Generators = Sa_graph.Generators
module Model = Sa_lp.Model
module Revised = Sa_lp.Revised
module Workspace = Sa_lp.Workspace
module Instance = Sa_core.Instance
module Lp = Sa_core.Lp_relaxation
module Oracle = Sa_core.Oracle_solver

(* ---------- random instances --------------------------------------------- *)

type kind = Unweighted | Dense_weighted | Sparse_weighted | Per_channel | Per_channel_weighted

let kind_name = function
  | Unweighted -> "unweighted"
  | Dense_weighted -> "edge-weighted dense"
  | Sparse_weighted -> "edge-weighted sparse"
  | Per_channel -> "per-channel"
  | Per_channel_weighted -> "per-channel weighted"

let kinds = [| Unweighted; Dense_weighted; Sparse_weighted; Per_channel; Per_channel_weighted |]

(* Directed entries where each unordered pair is absent, one-directional
   (either way) or two-directional.  [nan_ok] lets a dense matrix carry a
   NaN weight, whose [wbar] is not positive and so must never appear. *)
let random_entries g ~n ~nan_ok =
  let acc = ref [] in
  let draw () =
    if nan_ok && Prng.bernoulli g 0.03 then Float.nan else Prng.uniform_in g 0.02 0.9
  in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      match Prng.int g 5 with
      | 0 -> acc := (u, v, draw ()) :: !acc
      | 1 -> acc := (v, u, draw ()) :: !acc
      | 2 -> acc := (u, v, draw ()) :: (v, u, draw ()) :: !acc
      | _ -> ()
    done
  done;
  Array.of_list !acc

let dense_weighted ~nan_ok g ~n =
  let wg = Weighted.create n in
  Array.iter (fun (u, v, x) -> Weighted.set wg u v x) (random_entries g ~n ~nan_ok);
  wg

(* A sparse graph, sometimes with a floor that drops the light entries. *)
let sparse_weighted g ~n =
  let w_min = if Prng.bool g then 0.0 else 0.1 in
  Weighted.of_entries n ~w_min (random_entries g ~n ~nan_ok:false)

let random_weighted ~nan_ok g ~n =
  if Prng.bool g then dense_weighted ~nan_ok g ~n else sparse_weighted g ~n

let random_instance ?(nan_ok = true) ~kind seed =
  let g = Prng.create ~seed in
  let n = 2 + Prng.int g 13 and k = 1 + Prng.int g 4 in
  let graph () = Generators.gnp g ~n ~p:(Prng.uniform_in g 0.1 0.6) in
  let conflict =
    match kind with
    | Unweighted -> Instance.Unweighted (graph ())
    | Dense_weighted -> Instance.Edge_weighted (dense_weighted ~nan_ok g ~n)
    | Sparse_weighted -> Instance.Edge_weighted (sparse_weighted g ~n)
    | Per_channel -> Instance.Per_channel (Array.init k (fun _ -> graph ()))
    | Per_channel_weighted ->
        Instance.Per_channel_weighted (Array.init k (fun _ -> random_weighted ~nan_ok g ~n))
  in
  let bidders =
    Array.init n (fun _ ->
        if Prng.bool g then
          Vgen.random_xor g ~k ~bids:3 ~max_bundle:k ~dist:(Vgen.Uniform (1.0, 10.0))
        else Vgen.random_mixed g ~k ~dist:(Vgen.Uniform (1.0, 10.0)))
  in
  let inst =
    Instance.make ~conflict ~k ~bidders
      ~ordering:(Ordering.of_order (Prng.permutation g n))
      ~rho:(Prng.uniform_in g 1.0 4.0)
  in
  if Prng.bool g then
    Instance.with_available inst
      (Array.init n (fun _ -> Bundle.of_int (Prng.int g (1 lsl k))))
  else inst

let random_zeroed seed n =
  let g = Prng.create ~seed:(seed + 7919) in
  List.filter (fun _ -> Prng.bernoulli g 0.25) (List.init n Fun.id)

(* ---------- bitwise spec comparison --------------------------------------- *)

let bits = Int64.bits_of_float

let triples (s : Revised.spec) =
  List.concat
    (List.init s.Revised.s_nstruct (fun j ->
         List.init
           (s.Revised.s_cstart.(j + 1) - s.Revised.s_cstart.(j))
           (fun p ->
             let p = s.Revised.s_cstart.(j) + p in
             (s.Revised.s_crow.(p), j, bits s.Revised.s_cval.(p)))))
  |> List.sort compare

(* [None] when the two models stage identical specs, else what differs. *)
let spec_diff m_walk m_ref =
  let a = Model.to_spec (Workspace.create ()) m_walk in
  let b = Model.to_spec (Workspace.create ()) m_ref in
  let prefix len arr = Array.to_list (Array.sub arr 0 len) in
  if a.Revised.s_m <> b.Revised.s_m then
    Some (Printf.sprintf "rows %d vs %d" a.Revised.s_m b.Revised.s_m)
  else if a.Revised.s_nstruct <> b.Revised.s_nstruct then
    Some (Printf.sprintf "vars %d vs %d" a.Revised.s_nstruct b.Revised.s_nstruct)
  else
    let m = a.Revised.s_m and nv = a.Revised.s_nstruct in
    if List.map bits (prefix nv a.Revised.s_c) <> List.map bits (prefix nv b.Revised.s_c)
    then Some "objective differs"
    else if
      List.map bits (prefix m a.Revised.s_rhs) <> List.map bits (prefix m b.Revised.s_rhs)
      || prefix m a.Revised.s_rel <> prefix m b.Revised.s_rel
    then Some "rhs/relations differ"
    else if triples a <> triples b then Some "(row, var, coeff) triples differ"
    else None

(* ---------- properties ---------------------------------------------------- *)

let arb_case =
  QCheck.(pair (int_range 0 (Array.length kinds - 1)) (int_range 1 100_000))

let prop_iter_conflicts =
  QCheck.Test.make ~count:150 ~name:"iter_conflicts = all-pairs wbar scan" arb_case
    (fun (ki, seed) ->
      let inst = random_instance ~kind:kinds.(ki) seed in
      for v = 0 to Instance.n inst - 1 do
        for channel = 0 to inst.Instance.k - 1 do
          let got = ref [] in
          Instance.iter_conflicts inst ~channel v (fun u w -> got := (u, bits w) :: !got);
          let want =
            List.map (fun (u, w) -> (u, bits w)) (Lp_reference.conflicts inst ~channel v)
          in
          if List.rev !got <> want then
            QCheck.Test.fail_reportf "%s: vertex %d channel %d neighbours differ"
              (kind_name kinds.(ki)) v channel
        done
      done;
      true)

let prop_build_bitwise =
  QCheck.Test.make ~count:200 ~name:"neighbour-walk LP (1) = all-pairs LP (1), bitwise"
    QCheck.(pair arb_case bool)
    (fun ((ki, seed), zero) ->
      let inst = random_instance ~kind:kinds.(ki) seed in
      let zeroed = if zero then random_zeroed seed (Instance.n inst) else [] in
      let m_walk, cols_walk = Lp.build ~zeroed inst in
      let m_ref, cols_ref = Lp_reference.lp1 ~zeroed inst in
      if cols_walk <> cols_ref then
        QCheck.Test.fail_reportf "%s: columns differ" (kind_name kinds.(ki));
      match spec_diff m_walk m_ref with
      | None -> true
      | Some what -> QCheck.Test.fail_reportf "%s: %s" (kind_name kinds.(ki)) what)

(* ---------- unit cases ---------------------------------------------------- *)

(* w(0,1) > 0 with w(1,0) = 0, in both representations: the pair still
   conflicts, seen from either end, and a two-way pair appears once with
   its summed weight. *)
let test_one_directional () =
  let sparse = Weighted.of_entries 3 [| (0, 1, 0.4); (2, 1, 0.3); (1, 2, 0.2) |] in
  let dense = Weighted.create 3 in
  List.iter (fun (u, v, x) -> Weighted.set dense u v x) [ (0, 1, 0.4); (2, 1, 0.3); (1, 2, 0.2) ];
  List.iter
    (fun wg ->
      let seen = ref [] in
      Weighted.iter_wbar wg 1 (fun u w -> seen := (u, w) :: !seen);
      Alcotest.(check (list (pair int (float 0.0))))
        "union of out and in, deduplicated, ascending"
        [ (0, 0.4); (2, 0.5) ] (List.rev !seen);
      let seen = ref [] in
      Weighted.iter_wbar wg 0 (fun u w -> seen := (u, w) :: !seen);
      Alcotest.(check (list (pair int (float 0.0)))) "out-only pair" [ (1, 0.4) ] (List.rev !seen))
    [ sparse; dense ]

let test_instance_freezes_graphs () =
  let g = Prng.create ~seed:5 in
  let graph () = Generators.gnp g ~n:6 ~p:0.5 in
  let bidders = Array.init 6 (fun _ -> Vgen.random_additive g ~k:2 ~dist:(Vgen.Uniform (1.0, 2.0))) in
  let make conflict =
    ignore
      (Instance.make ~conflict ~k:2 ~bidders ~ordering:(Ordering.identity 6) ~rho:1.0)
  in
  let single = graph () and pair = [| graph (); graph () |] in
  Alcotest.(check bool) "unfrozen before" false (Graph.is_frozen single);
  make (Instance.Unweighted single);
  Alcotest.(check bool) "Unweighted frozen" true (Graph.is_frozen single);
  make (Instance.Per_channel pair);
  Alcotest.(check bool) "every Per_channel graph frozen" true
    (Array.for_all Graph.is_frozen pair)

let test_colgen_matches_explicit () =
  Array.iter
    (fun kind ->
      List.iter
        (fun seed ->
          let inst = random_instance ~nan_ok:false ~kind seed in
          let explicit = Lp.solve_explicit inst in
          let colgen, _ = Oracle.solve inst in
          let scale = Float.max 1.0 (Float.abs explicit.Lp.objective) in
          if Float.abs (colgen.Lp.objective -. explicit.Lp.objective) > 1e-6 *. scale then
            Alcotest.failf "%s seed %d: colgen %.9f vs explicit %.9f" (kind_name kind) seed
              colgen.Lp.objective explicit.Lp.objective;
          if not (Lp.is_lp_feasible inst colgen) then
            Alcotest.failf "%s seed %d: colgen point infeasible" (kind_name kind) seed)
        [ 3; 17; 29; 41 ])
    kinds

let suite =
  [
    Alcotest.test_case "one-directional weights conflict" `Quick test_one_directional;
    Alcotest.test_case "Instance.make freezes every graph" `Quick
      test_instance_freezes_graphs;
    Alcotest.test_case "colgen = explicit on every conflict kind" `Quick
      test_colgen_matches_explicit;
    QCheck_alcotest.to_alcotest prop_iter_conflicts;
    QCheck_alcotest.to_alcotest prop_build_bitwise;
  ]
