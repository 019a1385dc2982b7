(* Tests for the multicore execution paths. *)

module Prng = Sa_util.Prng
module Instance = Sa_core.Instance
module Allocation = Sa_core.Allocation
module Lp = Sa_core.Lp_relaxation
module Derand = Sa_core.Derand
module Parallel = Sa_core.Parallel
module Workloads = Sa_exp.Workloads

let fixture seed = Workloads.protocol_instance ~seed ~n:12 ~k:2 ()

let test_parallel_rounding_feasible () =
  let inst = fixture 1 in
  let frac = Lp.solve_explicit inst in
  List.iter
    (fun domains ->
      let alloc = Parallel.solve_rounding ~domains ~trials_per_domain:2 ~seed:5 inst frac in
      Alcotest.(check bool)
        (Printf.sprintf "%d domains feasible" domains)
        true
        (Allocation.is_feasible inst alloc);
      Alcotest.(check bool) "below LP" true
        (Allocation.value inst alloc <= frac.Lp.objective +. 1e-6))
    [ 1; 2; 4 ]

let test_parallel_rounding_deterministic () =
  let inst = fixture 2 in
  let frac = Lp.solve_explicit inst in
  let a = Parallel.solve_rounding ~domains:3 ~trials_per_domain:2 ~seed:7 inst frac in
  let b = Parallel.solve_rounding ~domains:3 ~trials_per_domain:2 ~seed:7 inst frac in
  Alcotest.(check (float 1e-12)) "same value across runs"
    (Allocation.value inst a) (Allocation.value inst b)

let test_parallel_derand_matches_sequential () =
  let inst = fixture 3 in
  let frac = Lp.solve_explicit inst in
  let seq = Derand.algorithm1_derand inst frac in
  List.iter
    (fun domains ->
      let par = Parallel.derand1 ~domains inst frac in
      Alcotest.(check bool)
        (Printf.sprintf "%d domains = sequential allocation" domains)
        true (par = seq);
      Alcotest.(check int64)
        (Printf.sprintf "%d domains = sequential welfare bits" domains)
        (Int64.bits_of_float (Allocation.value inst seq))
        (Int64.bits_of_float (Allocation.value inst par));
      Alcotest.(check bool) "feasible" true (Allocation.is_feasible inst par))
    [ 1; 2; 3 ]

let test_parallel_validation () =
  let inst = fixture 4 in
  let frac = Lp.solve_explicit inst in
  Alcotest.check_raises "bad domains"
    (Invalid_argument "Parallel.solve_rounding: domains must be >= 1") (fun () ->
      ignore (Parallel.solve_rounding ~domains:0 ~seed:1 inst frac));
  let winst, _ =
    Workloads.sinr_fixed_instance ~seed:5 ~n:8 ~k:2 ~scheme:Sa_wireless.Sinr.Uniform ()
  in
  let wfrac = Lp.solve_explicit winst in
  Alcotest.check_raises "derand1 needs unweighted"
    (Invalid_argument "Parallel.derand1: unweighted instances only") (fun () ->
      ignore (Parallel.derand1 winst wfrac))

let suite =
  [
    Alcotest.test_case "parallel rounding feasible" `Quick test_parallel_rounding_feasible;
    Alcotest.test_case "parallel rounding deterministic" `Quick test_parallel_rounding_deterministic;
    Alcotest.test_case "parallel derand = sequential" `Quick test_parallel_derand_matches_sequential;
    Alcotest.test_case "parallel validation" `Quick test_parallel_validation;
  ]
