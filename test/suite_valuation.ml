(* Tests for Sa_val: bundles, valuations, demand oracles. *)

module Bundle = Sa_val.Bundle
module Valuation = Sa_val.Valuation
module Vgen = Sa_val.Gen
module Prng = Sa_util.Prng

(* ---------- Bundle -------------------------------------------------------- *)

let test_bundle_basic () =
  let b = Bundle.of_list [ 0; 2; 5 ] in
  Alcotest.(check int) "card" 3 (Bundle.card b);
  Alcotest.(check bool) "mem 2" true (Bundle.mem 2 b);
  Alcotest.(check bool) "not mem 1" false (Bundle.mem 1 b);
  Alcotest.(check (list int)) "to_list sorted" [ 0; 2; 5 ] (Bundle.to_list b);
  Alcotest.(check bool) "empty is empty" true (Bundle.is_empty Bundle.empty);
  Alcotest.(check int) "full 3" 3 (Bundle.card (Bundle.full 3))

let test_bundle_set_ops () =
  let a = Bundle.of_list [ 0; 1 ] and b = Bundle.of_list [ 1; 2 ] in
  Alcotest.(check (list int)) "union" [ 0; 1; 2 ] (Bundle.to_list (Bundle.union a b));
  Alcotest.(check (list int)) "inter" [ 1 ] (Bundle.to_list (Bundle.inter a b));
  Alcotest.(check (list int)) "diff" [ 0 ] (Bundle.to_list (Bundle.diff a b));
  Alcotest.(check bool) "intersects" true (Bundle.intersects a b);
  Alcotest.(check bool) "subset" true (Bundle.subset (Bundle.singleton 1) a);
  Alcotest.(check bool) "not subset" false (Bundle.subset a b)

let test_bundle_all_subsets () =
  let subs = Bundle.all_subsets 3 in
  Alcotest.(check int) "2^3 subsets" 8 (List.length subs);
  Alcotest.(check int) "7 nonempty" 7 (List.length (Bundle.all_nonempty_subsets 3))

let test_bundle_bounds () =
  Alcotest.check_raises "channel 62 rejected"
    (Invalid_argument "Bundle: channel out of range") (fun () ->
      ignore (Bundle.singleton 62))

(* ---------- Valuation: value --------------------------------------------- *)

let test_xor_value_free_disposal () =
  let v = Valuation.Xor [ (Bundle.of_list [ 0 ], 5.0); (Bundle.of_list [ 0; 1 ], 3.0) ] in
  (* value of {0,1} is the best listed subset: 5 from {0} beats 3 *)
  Alcotest.(check (float 1e-12)) "superset takes best sub-bid" 5.0
    (Valuation.value v (Bundle.of_list [ 0; 1 ]));
  Alcotest.(check (float 1e-12)) "exact bid" 5.0 (Valuation.value v (Bundle.singleton 0));
  Alcotest.(check (float 1e-12)) "uncovered" 0.0 (Valuation.value v (Bundle.singleton 1));
  Alcotest.(check (float 1e-12)) "empty" 0.0 (Valuation.value v Bundle.empty)

let test_additive_value () =
  let v = Valuation.Additive [| 1.0; 2.0; 4.0 |] in
  Alcotest.(check (float 1e-12)) "sum" 5.0 (Valuation.value v (Bundle.of_list [ 0; 2 ]))

let test_unit_demand_value () =
  let v = Valuation.Unit_demand [| 1.0; 7.0; 4.0 |] in
  Alcotest.(check (float 1e-12)) "max" 7.0 (Valuation.value v (Bundle.full 3))

let test_symmetric_value () =
  let v = Valuation.Symmetric [| 0.0; 3.0; 5.0; 6.0 |] in
  Alcotest.(check (float 1e-12)) "by cardinality" 5.0
    (Valuation.value v (Bundle.of_list [ 0; 2 ]))

let test_validate () =
  Alcotest.check_raises "negative bid"
    (Invalid_argument "Valuation.validate: negative bid value") (fun () ->
      Valuation.validate (Valuation.Xor [ (Bundle.singleton 0, -1.0) ]) ~k:2);
  Alcotest.check_raises "channel out of k"
    (Invalid_argument "Valuation.validate: bid uses channel >= k") (fun () ->
      Valuation.validate (Valuation.Xor [ (Bundle.singleton 3, 1.0) ]) ~k:2);
  Alcotest.check_raises "symmetric f0"
    (Invalid_argument "Valuation.validate: Symmetric f(0) must be 0") (fun () ->
      Valuation.validate (Valuation.Symmetric [| 1.0; 2.0; 3.0 |]) ~k:2)

(* NaN passes a [v < 0.0] test and an infinite bid makes the LP objective
   infinite: every variant must reject all three non-finite values. *)
let non_finite = [ Float.nan; Float.infinity; Float.neg_infinity ]

let check_rejects name make =
  List.iter
    (fun x ->
      match Valuation.validate (make x) ~k:2 with
      | () -> Alcotest.failf "%s: %h accepted" name x
      | exception Invalid_argument _ -> ())
    non_finite

let b0 = Bundle.singleton 0

let test_non_finite_xor () =
  check_rejects "Xor" (fun x -> Valuation.Xor [ (b0, 1.0); (Bundle.full 2, x) ])

let test_non_finite_or () =
  check_rejects "Or_bids" (fun x -> Valuation.Or_bids [ (b0, x) ])

let test_non_finite_channel_arrays () =
  check_rejects "Additive" (fun x -> Valuation.Additive [| 1.0; x |]);
  check_rejects "Unit_demand" (fun x -> Valuation.Unit_demand [| x; 1.0 |])

let test_non_finite_symmetric () =
  check_rejects "Symmetric" (fun x -> Valuation.Symmetric [| 0.0; 1.0; x |])

let test_non_finite_budget_additive () =
  check_rejects "Budget_additive values" (fun x ->
      Valuation.Budget_additive { values = [| x; 1.0 |]; budget = 2.0 });
  check_rejects "Budget_additive budget" (fun x ->
      Valuation.Budget_additive { values = [| 1.0; 1.0 |]; budget = x })

(* ---------- Demand oracles: exactness vs brute force ---------------------- *)

let brute_force_demand v ~k ~prices =
  List.fold_left
    (fun (best_b, best_u) b ->
      let bundle = Bundle.of_int b in
      let u =
        Valuation.value v bundle
        -. Bundle.fold (fun j acc -> acc +. prices.(j)) bundle 0.0
      in
      if u > best_u +. 1e-12 then (bundle, u) else (best_b, best_u))
    (Bundle.empty, 0.0)
    (List.map Bundle.to_int (Bundle.all_subsets k))

let check_demand_exact ~name v ~k prices =
  let _, u_oracle = Valuation.demand v ~prices in
  let _, u_brute = brute_force_demand v ~k ~prices in
  Alcotest.(check (float 1e-9)) name u_brute u_oracle

let test_demand_oracles_exact () =
  let g = Prng.create ~seed:21 in
  let k = 4 in
  for _ = 1 to 50 do
    let prices = Array.init k (fun _ -> Prng.float g 5.0) in
    check_demand_exact ~name:"xor"
      (Vgen.random_xor g ~k ~bids:4 ~max_bundle:3 ~dist:(Vgen.Uniform (1.0, 10.0)))
      ~k prices;
    check_demand_exact ~name:"additive"
      (Vgen.random_additive g ~k ~dist:(Vgen.Uniform (1.0, 10.0)))
      ~k prices;
    check_demand_exact ~name:"unit"
      (Vgen.random_unit_demand g ~k ~dist:(Vgen.Uniform (1.0, 10.0)))
      ~k prices;
    check_demand_exact ~name:"symmetric"
      (Vgen.random_symmetric g ~k ~dist:(Vgen.Uniform (1.0, 5.0)) ~concave:true)
      ~k prices;
    check_demand_exact ~name:"budget-additive"
      (Vgen.random_budget_additive g ~k ~dist:(Vgen.Uniform (1.0, 8.0)))
      ~k prices
  done

let test_demand_zero_prices () =
  let v = Valuation.Additive [| 1.0; 0.0; 3.0 |] in
  let bundle, util = Valuation.demand v ~prices:[| 0.0; 0.0; 0.0 |] in
  Alcotest.(check (float 1e-12)) "utility = total positive value" 4.0 util;
  Alcotest.(check bool) "takes positive channels" true
    (Bundle.mem 0 bundle && Bundle.mem 2 bundle && not (Bundle.mem 1 bundle))

let test_demand_high_prices () =
  let v = Valuation.Unit_demand [| 1.0; 2.0 |] in
  let bundle, util = Valuation.demand v ~prices:[| 10.0; 10.0 |] in
  Alcotest.(check bool) "empty demand" true (Bundle.is_empty bundle);
  Alcotest.(check (float 1e-12)) "zero utility" 0.0 util

(* ---------- support / max_value ------------------------------------------- *)

let test_or_bids_value () =
  let v =
    Valuation.Or_bids
      [
        (Bundle.of_list [ 0 ], 3.0);
        (Bundle.of_list [ 1 ], 4.0);
        (Bundle.of_list [ 0; 1 ], 6.0);
        (Bundle.of_list [ 2 ], 1.0);
      ]
  in
  (* value {0,1}: either bid 3 + bid 4 (disjoint) = 7, or the pair bid 6 *)
  Alcotest.(check (float 1e-12)) "packs disjoint bids" 7.0
    (Valuation.value v (Bundle.of_list [ 0; 1 ]));
  Alcotest.(check (float 1e-12)) "singleton" 3.0 (Valuation.value v (Bundle.singleton 0));
  Alcotest.(check (float 1e-12)) "everything" 8.0 (Valuation.value v (Bundle.full 3));
  Alcotest.(check (float 1e-12)) "max_value" 8.0 (Valuation.max_value v ~k:3)

let test_or_bids_demand_exact () =
  let g = Prng.create ~seed:23 in
  let k = 4 in
  for _ = 1 to 30 do
    let v = Vgen.random_or g ~k ~bids:4 ~max_bundle:2 ~dist:(Vgen.Uniform (1.0, 8.0)) in
    let prices = Array.init k (fun _ -> Prng.float g 5.0) in
    check_demand_exact ~name:"or-bids" v ~k prices
  done

let test_or_bids_validate () =
  Alcotest.check_raises "too many atomic bids"
    (Invalid_argument "Valuation.validate: Or_bids limited to 20 atomic bids")
    (fun () ->
      Valuation.validate
        (Valuation.Or_bids (List.init 21 (fun i -> (Bundle.singleton (i mod 4), 1.0))))
        ~k:4)

let test_budget_additive_cap () =
  let v = Valuation.Budget_additive { values = [| 3.0; 4.0; 5.0 |]; budget = 6.0 } in
  Alcotest.(check (float 1e-12)) "below cap" 3.0 (Valuation.value v (Bundle.singleton 0));
  Alcotest.(check (float 1e-12)) "capped" 6.0 (Valuation.value v (Bundle.full 3));
  Alcotest.(check (float 1e-12)) "max_value capped" 6.0 (Valuation.max_value v ~k:3);
  (* demand under prices: channel 2 alone gives min(6,5)-1 = 4; {1,2} gives
     6 - 2 = 4; {0,2} gives 6 - 2 = 4; cheapest way to reach the cap wins or
     ties — just check oracle matches brute force, via the shared helper. *)
  check_demand_exact ~name:"budget-additive crafted" v ~k:3 [| 1.0; 1.0; 1.0 |]

let test_budget_additive_scale () =
  let v = Valuation.Budget_additive { values = [| 2.0; 2.0 |]; budget = 3.0 } in
  let half = Valuation.scale v 0.5 in
  Alcotest.(check (float 1e-12)) "scaled cap" 1.5 (Valuation.value half (Bundle.full 2))

let test_support_xor () =
  let v =
    Valuation.Xor [ (Bundle.singleton 0, 2.0); (Bundle.empty, 0.0); (Bundle.singleton 1, 0.0) ]
  in
  let s = Valuation.support v ~k:2 in
  Alcotest.(check int) "only positive non-empty" 1 (List.length s)

let test_support_additive_enumerates () =
  let v = Valuation.Additive [| 1.0; 1.0 |] in
  let s = Valuation.support v ~k:2 in
  Alcotest.(check int) "3 bundles" 3 (List.length s)

let test_max_value () =
  Alcotest.(check (float 1e-12)) "additive" 6.0
    (Valuation.max_value (Valuation.Additive [| 1.0; 2.0; 3.0 |]) ~k:3);
  Alcotest.(check (float 1e-12)) "xor" 4.0
    (Valuation.max_value
       (Valuation.Xor [ (Bundle.singleton 0, 4.0); (Bundle.singleton 1, 2.0) ])
       ~k:2)

let test_scale () =
  let v = Valuation.scale (Valuation.Additive [| 2.0; 4.0 |]) 0.5 in
  Alcotest.(check (float 1e-12)) "halved" 3.0 (Valuation.value v (Bundle.full 2))

(* ---------- property tests ------------------------------------------------- *)

let prop_demand_dominates_any_bundle =
  QCheck.Test.make ~name:"demand utility >= utility of any bundle" ~count:100
    QCheck.(pair (int_range 1 10_000) (int_range 0 15))
    (fun (seed, bmask) ->
      let g = Prng.create ~seed in
      let k = 4 in
      let v = Vgen.random_mixed g ~k ~dist:(Vgen.Uniform (0.5, 8.0)) in
      let prices = Array.init k (fun _ -> Prng.float g 4.0) in
      let _, u = Valuation.demand v ~prices in
      let bundle = Bundle.of_int bmask in
      let u_b =
        Valuation.value v bundle
        -. Bundle.fold (fun j acc -> acc +. prices.(j)) bundle 0.0
      in
      u >= u_b -. 1e-9)

let prop_value_nonneg =
  QCheck.Test.make ~name:"values are non-negative" ~count:100
    QCheck.(pair (int_range 1 10_000) (int_range 0 15))
    (fun (seed, bmask) ->
      let g = Prng.create ~seed in
      let v = Vgen.random_mixed g ~k:4 ~dist:(Vgen.Uniform (0.0, 5.0)) in
      Valuation.value v (Bundle.of_int bmask) >= 0.0)

let suite =
  [
    Alcotest.test_case "bundle basics" `Quick test_bundle_basic;
    Alcotest.test_case "bundle set operations" `Quick test_bundle_set_ops;
    Alcotest.test_case "bundle subset enumeration" `Quick test_bundle_all_subsets;
    Alcotest.test_case "bundle channel bounds" `Quick test_bundle_bounds;
    Alcotest.test_case "XOR free disposal" `Quick test_xor_value_free_disposal;
    Alcotest.test_case "additive value" `Quick test_additive_value;
    Alcotest.test_case "unit-demand value" `Quick test_unit_demand_value;
    Alcotest.test_case "symmetric value" `Quick test_symmetric_value;
    Alcotest.test_case "validation errors" `Quick test_validate;
    Alcotest.test_case "demand oracles exact vs brute force" `Quick test_demand_oracles_exact;
    Alcotest.test_case "demand at zero prices" `Quick test_demand_zero_prices;
    Alcotest.test_case "demand under high prices" `Quick test_demand_high_prices;
    Alcotest.test_case "OR bids pack disjointly" `Quick test_or_bids_value;
    Alcotest.test_case "OR bids demand exact" `Quick test_or_bids_demand_exact;
    Alcotest.test_case "OR bids validation" `Quick test_or_bids_validate;
    Alcotest.test_case "budget-additive cap" `Quick test_budget_additive_cap;
    Alcotest.test_case "budget-additive scaling" `Quick test_budget_additive_scale;
    Alcotest.test_case "XOR support filters" `Quick test_support_xor;
    Alcotest.test_case "additive support enumerates" `Quick test_support_additive_enumerates;
    Alcotest.test_case "max_value" `Quick test_max_value;
    Alcotest.test_case "scaling" `Quick test_scale;
    QCheck_alcotest.to_alcotest prop_demand_dominates_any_bundle;
    QCheck_alcotest.to_alcotest prop_value_nonneg;
    Alcotest.test_case "non-finite XOR bids rejected" `Quick test_non_finite_xor;
    Alcotest.test_case "non-finite OR bids rejected" `Quick test_non_finite_or;
    Alcotest.test_case "non-finite channel values rejected" `Quick
      test_non_finite_channel_arrays;
    Alcotest.test_case "non-finite symmetric values rejected" `Quick
      test_non_finite_symmetric;
    Alcotest.test_case "non-finite budget-additive rejected" `Quick
      test_non_finite_budget_additive;
  ]
