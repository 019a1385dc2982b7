(* The table-driven derandomization against the full-pass oracle.

   [Derand] compiles each job into per-residue pick and value tables and
   scores the p² seeds without re-running the rounding.  These properties
   hold it to [Derand_reference], which rounds every seed with
   [Rounding.round_with_uniforms]: the same bundle array (structural [=])
   and the same welfare bits, on every graph family, for LP and
   hand-made fractional points (empty bidders, masses beyond the scale,
   zero-mass columns, masses that land exactly on a uniform), revalued
   bids, availability masks, n = 1, k = 1, and tie-heavy valuations that
   exercise both first-wins rules. *)

module Prng = Sa_util.Prng
module Bundle = Sa_val.Bundle
module Valuation = Sa_val.Valuation
module Vgen = Sa_val.Gen
module Ordering = Sa_graph.Ordering
module Generators = Sa_graph.Generators
module Instance = Sa_core.Instance
module Allocation = Sa_core.Allocation
module Lp = Sa_core.Lp_relaxation
module Derand = Sa_core.Derand
module Workloads = Sa_exp.Workloads
module Workload = Sa_engine.Workload
module Trace = Sa_telemetry.Trace

(* ---------- instances ----------------------------------------------------- *)

type family = Protocol | Disk | Random | Clique | Sinr | Dense_weighted | Sparse_weighted

let family_name = function
  | Protocol -> "protocol"
  | Disk -> "disk"
  | Random -> "random"
  | Clique -> "clique"
  | Sinr -> "sinr"
  | Dense_weighted -> "dense weights"
  | Sparse_weighted -> "sparse weights"

let random_bundle g ~k = Bundle.of_int (1 + Prng.int g ((1 lsl k) - 1))

(* Every XOR bid worth the same, or a linear symmetric curve: candidates of
   equal welfare abound, so the tie rules decide the winner. *)
let equal_xor g ~k =
  let bundles =
    List.sort_uniq Bundle.compare (List.init (1 + Prng.int g 3) (fun _ -> random_bundle g ~k))
  in
  Valuation.Xor (List.map (fun b -> (b, 1.0)) bundles)

let tie_heavy g ~k =
  if Prng.bool g then equal_xor g ~k else Valuation.Symmetric (Array.init (k + 1) float_of_int)

let bidders g ~n ~k =
  let tied = Prng.bool g in
  Array.init n (fun _ ->
      if tied then tie_heavy g ~k
      else if Prng.bool g then
        Vgen.random_xor g ~k ~bids:3 ~max_bundle:k ~dist:(Vgen.Uniform (1.0, 10.0))
      else Vgen.random_mixed g ~k ~dist:(Vgen.Uniform (1.0, 10.0)))

(* A power-of-two ρ keeps the rounding scale 2√k·ρ (k = 1 or 4) a power of
   two, so grid masses divide exactly onto the uniforms r/p. *)
let random_rho g = if Prng.bool g then float_of_int (1 lsl Prng.int g 3) else Prng.uniform_in g 1.0 4.0

let random_instance ?(ties = false) ~family seed =
  let g = Prng.create ~seed in
  let n = if Prng.bernoulli g 0.15 then 1 else 2 + Prng.int g 9 in
  let k =
    if ties then 2 + Prng.int g 3
    else if Prng.bool g then 1 + Prng.int g 4
    else if Prng.bool g then 1
    else 4
  in
  let base =
    match family with
    | Protocol -> Workloads.protocol_instance ~seed ~n ~k ()
    | Disk -> Workloads.disk_instance ~seed ~n ~k ()
    | Clique -> Workloads.clique_instance ~seed ~n ~k ()
    | Sinr -> fst (Workloads.sinr_fixed_instance ~seed ~n ~k ~scheme:Sa_wireless.Sinr.Uniform ())
    | Random ->
        Instance.make
          ~conflict:(Instance.Unweighted (Generators.gnp g ~n ~p:(Prng.uniform_in g 0.1 0.7)))
          ~k ~bidders:(bidders g ~n ~k)
          ~ordering:(Ordering.of_order (Prng.permutation g n))
          ~rho:1.0
    | Dense_weighted -> Suite_lp_build.random_instance ~kind:Suite_lp_build.Dense_weighted seed
    | Sparse_weighted -> Suite_lp_build.random_instance ~kind:Suite_lp_build.Sparse_weighted seed
  in
  let n = Instance.n base and k = base.Instance.k in
  let bidders =
    if ties then Array.init n (fun _ -> equal_xor g ~k)
    else if Prng.bool g then bidders g ~n ~k
    else base.Instance.bidders
  in
  let inst =
    Instance.make ~conflict:base.Instance.conflict ~k ~bidders ~ordering:base.Instance.ordering
      ~rho:(if Prng.bool g then random_rho g else base.Instance.rho)
  in
  let inst = if (not ties) && Prng.bool g then Workload.revalue ~seed:(seed + 1) inst else inst in
  if Prng.bool g then
    Instance.with_available inst (Array.init n (fun _ -> Bundle.of_int (Prng.int g (1 lsl k))))
  else inst

(* A fractional point the LP would never return: bidders without columns,
   zero-mass columns, masses on the 1/p grid of the scale, and totals well
   past the scale (the inverse CDF then always picks). *)
let crafted_frac g inst ~factor =
  let k = inst.Instance.k in
  let scale = factor *. sqrt (float_of_int k) *. inst.Instance.rho in
  let columns = ref [] in
  for bidder = 0 to Instance.n inst - 1 do
    if not (Prng.bernoulli g 0.2) then
      for _ = 0 to Prng.int g 4 do
        let x =
          match Prng.int g 4 with
          | 0 -> 0.0
          | 1 -> scale *. (float_of_int (Prng.int g Derand.prime) /. float_of_int Derand.prime)
          | 2 -> Prng.uniform_in g 0.0 (1.5 *. scale)
          | _ -> Prng.uniform_in g 0.0 1.0
        in
        columns := { Lp.bidder; bundle = random_bundle g ~k; x } :: !columns
      done
  done;
  { Lp.columns = Array.of_list (List.rev !columns); objective = 0.0 }

let frac_for g inst ~factor =
  if Prng.bool g then Lp.solve_explicit inst else crafted_frac g inst ~factor

(* ---------- bitwise comparison -------------------------------------------- *)

let bits = Int64.bits_of_float

let same inst got want =
  got = want && Int64.equal (bits (Allocation.value inst got)) (bits (Allocation.value inst want))

let check ~what inst got want =
  if not (same inst got want) then
    QCheck.Test.fail_reportf "%s: derand welfare %.17g, reference %.17g (n=%d k=%d)\n%s\nvs\n%s"
      what (Allocation.value inst got) (Allocation.value inst want) (Instance.n inst)
      inst.Instance.k
      (Sa_core.Serialize.allocation_to_string got)
      (Sa_core.Serialize.allocation_to_string want);
  true

let prop_algorithm1 =
  let families = [| Protocol; Disk; Random; Clique |] in
  QCheck.Test.make ~name:"algorithm1_derand = full-pass reference, bit for bit" ~count:40
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let family = families.(seed mod Array.length families) in
      let inst = random_instance ~family seed in
      let frac = frac_for (Prng.create ~seed:(seed + 17)) inst ~factor:2.0 in
      check ~what:(family_name family) inst (Derand.algorithm1_derand inst frac)
        (Derand_reference.algorithm1 inst frac))

let prop_algorithm23 =
  let families = [| Sinr; Dense_weighted; Sparse_weighted |] in
  QCheck.Test.make ~name:"algorithm23_derand = full-pass reference, bit for bit" ~count:15
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let family = families.(seed mod Array.length families) in
      let inst = random_instance ~family seed in
      let frac = frac_for (Prng.create ~seed:(seed + 17)) inst ~factor:4.0 in
      check ~what:(family_name family) inst (Derand.algorithm23_derand inst frac)
        (Derand_reference.algorithm23 inst frac))

(* Equal-valued bids on k >= 2 channels and hand-made masses on both sides
   of the √k split: small and large candidates, and successive seeds,
   often tie, so only the first-wins rules separate the answers. *)
let prop_ties =
  let families = [| Protocol; Random; Clique; Disk; Sinr; Sparse_weighted |] in
  QCheck.Test.make ~name:"tie-heavy valuations: derand = reference, bit for bit" ~count:30
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let family = families.(seed mod Array.length families) in
      let inst = random_instance ~ties:true ~family seed in
      let g = Prng.create ~seed:(seed + 17) in
      match inst.Instance.conflict with
      | Instance.Edge_weighted _ ->
          let frac = crafted_frac g inst ~factor:4.0 in
          check ~what:(family_name family) inst (Derand.algorithm23_derand inst frac)
            (Derand_reference.algorithm23 inst frac)
      | _ ->
          let frac = crafted_frac g inst ~factor:2.0 in
          check ~what:(family_name family) inst (Derand.algorithm1_derand inst frac)
            (Derand_reference.algorithm1 inst frac))

(* ---------- fixed cases --------------------------------------------------- *)

let test_single_bidder_single_channel () =
  let g = Prng.create ~seed:3 in
  let inst =
    Instance.make ~conflict:(Instance.Unweighted (Sa_graph.Graph.create 1)) ~k:1
      ~bidders:[| Valuation.Xor [ (Bundle.full 1, 2.0) ] |]
      ~ordering:(Ordering.identity 1) ~rho:1.0
  in
  List.iter
    (fun frac ->
      let got = Derand.algorithm1_derand inst frac in
      Alcotest.(check bool) "n = k = 1 matches the reference" true
        (same inst got (Derand_reference.algorithm1 inst frac)))
    [ Lp.solve_explicit inst; crafted_frac g inst ~factor:2.0; { Lp.columns = [||]; objective = 0.0 } ]

(* A dense matrix accepts a NaN weight.  The full pass adds it to the
   backward mass (NaN, so bidder 2 is never dropped); skipping it as a
   non-positive w̄ would leave 0.6 >= 1/2 and drop bidder 2. *)
let test_dense_nan_weight () =
  let wg = Sa_graph.Weighted.create 3 in
  Sa_graph.Weighted.set wg 0 2 Float.nan;
  Sa_graph.Weighted.set wg 1 2 0.6;
  let one = Bundle.full 1 in
  let inst =
    Instance.make ~conflict:(Instance.Edge_weighted wg) ~k:1
      ~bidders:(Array.make 3 (Valuation.Xor [ (one, 1.0) ]))
      ~ordering:(Ordering.identity 3) ~rho:1.0
  in
  (* mass twice the scale: every seed picks every bidder's bundle *)
  let frac =
    { Lp.columns = Array.init 3 (fun bidder -> { Lp.bidder; bundle = one; x = 8.0 }); objective = 0.0 }
  in
  let got = Derand.algorithm23_derand inst frac in
  Alcotest.(check bool) "matches the reference" true
    (same inst got (Derand_reference.algorithm23 inst frac));
  Alcotest.(check bool) "bidder 2 kept" true (Bundle.equal got.(2) one)

let test_span () =
  let inst = Workloads.protocol_instance ~seed:4 ~n:8 ~k:2 () in
  let frac = Lp.solve_explicit inst in
  Trace.clear ();
  ignore (Derand.algorithm1_derand inst frac);
  match List.filter (fun sp -> sp.Trace.name = "core.derand.solve") (Trace.recent ()) with
  | [ sp ] ->
      let attr k = List.assoc_opt k sp.Trace.attrs in
      Alcotest.(check (option string)) "candidates" (Some "10201") (attr "candidates");
      Alcotest.(check (option string)) "kind" (Some "unweighted") (attr "kind");
      Alcotest.(check bool) "alloc_bytes" true
        (match Option.bind (attr "alloc_bytes") float_of_string_opt with
        | Some b -> b >= 0.0
        | None -> false)
  | spans -> Alcotest.failf "expected one core.derand.solve span, got %d" (List.length spans)

let test_scan_ranges () =
  let inst = Workloads.protocol_instance ~seed:9 ~n:10 ~k:2 () in
  let frac = Lp.solve_explicit inst in
  let plan = Derand.plan inst frac in
  let scan a_lo a_hi = Derand.scan plan ~a_lo ~a_hi in
  let whole, _ = scan 0 Derand.prime in
  let (lo, lo_value), (hi, hi_value) = (scan 0 40, scan 40 Derand.prime) in
  Alcotest.(check bool) "two ranges, first best = whole range" true
    ((if lo_value >= hi_value then lo else hi) = whole);
  let empty, v = scan 5 5 in
  Alcotest.(check bool) "empty range keeps the empty allocation" true
    (empty = Allocation.empty 10 && v = 0.0);
  Alcotest.check_raises "range past p" (Invalid_argument "Derand.scan: bad seed range")
    (fun () -> ignore (scan 0 (Derand.prime + 1)));
  Alcotest.(check bool) "whole range = algorithm1_derand" true
    (whole = Derand.algorithm1_derand inst frac)

let suite =
  [
    Alcotest.test_case "n = 1, k = 1 and no columns" `Quick test_single_bidder_single_channel;
    Alcotest.test_case "dense NaN weight in the backward sum" `Quick test_dense_nan_weight;
    Alcotest.test_case "core.derand.solve span attrs" `Quick test_span;
    Alcotest.test_case "seed-range scans compose" `Quick test_scan_ranges;
    QCheck_alcotest.to_alcotest prop_algorithm1;
    QCheck_alcotest.to_alcotest prop_algorithm23;
    QCheck_alcotest.to_alcotest prop_ties;
  ]
