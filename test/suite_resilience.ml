(* Resilience suite: the fault-tolerant engine's degradation chain.

   Covers the tentpole guarantees of the robustness layer: every job
   terminates with a feasible allocation under any fault pattern, the
   fault pattern (and hence the per-job JSON) is bitwise deterministic
   across runs and domain counts, the warm-start rollback restores the
   pristine cold path exactly, deadlines degrade instead of aborting, and
   the structured failure taxonomy reaches the per-job records. *)

module Prng = Sa_util.Prng
module Timing = Sa_util.Timing
module Simplex = Sa_lp.Simplex
module Revised = Sa_lp.Revised
module Instance = Sa_core.Instance
module Allocation = Sa_core.Allocation
module Oracle_solver = Sa_core.Oracle_solver
module Workloads = Sa_exp.Workloads
module Engine = Sa_engine.Engine
module Faultgen = Sa_engine.Faultgen
module Failure = Sa_engine.Failure

(* ---------- fixtures ----------------------------------------------------- *)

let small_instance seed =
  let n = 8 + (seed mod 7) and k = 2 + (seed mod 2) in
  if seed mod 2 = 0 then Workloads.protocol_instance ~seed ~n ~k ()
  else Workloads.disk_instance ~seed ~n ~k ()

(* A mixed batch over repeated topologies, exercising all rounding paths. *)
let mixed_jobs ?(count = 6) () =
  List.init count (fun id ->
      let inst = small_instance (1 + (id mod 3)) in
      let algorithm =
        match id mod 3 with
        | 0 -> Engine.Adaptive
        | 1 -> Engine.Lp_round
        | _ -> Engine.Greedy_lp
      in
      Engine.job ~algorithm ~seed:(100 + id) ~trials:2 ~id inst)

let check_result_invariants what (r : Engine.result) jobs =
  let job = List.nth jobs r.Engine.job_id in
  let inst = job.Engine.instance in
  if r.Engine.tier = None then
    Alcotest.failf "%s: job %d failed despite fallback" what r.Engine.job_id;
  if not (Allocation.is_feasible inst r.Engine.allocation) then
    Alcotest.failf "%s: job %d infeasible allocation (tier %s)" what
      r.Engine.job_id
      (match r.Engine.tier with Some t -> Engine.tier_name t | None -> "none");
  Alcotest.(check (float 1e-9))
    (what ^ ": welfare consistent")
    (Allocation.value inst r.Engine.allocation)
    r.Engine.welfare;
  if not (Float.is_finite r.Engine.guarantee && r.Engine.guarantee >= 1.0) then
    Alcotest.failf "%s: job %d guarantee %.3f not certified" what r.Engine.job_id
      r.Engine.guarantee

(* ---------- feasibility under any fault pattern (satellite a) ------------ *)

let prop_feasible_under_faults =
  QCheck.Test.make ~count:12
    ~name:"every job feasible under any fault pattern"
    QCheck.(pair (int_range 0 10_000) (int_range 0 2))
    (fun (fault_seed, rate_idx) ->
      let rate = [| 0.25; 0.5; 1.0 |].(rate_idx) in
      let jobs = mixed_jobs () in
      let faults = Faultgen.create ~seed:fault_seed ~rate () in
      let policy = Engine.policy ~max_retries:1 ~faults () in
      let engine = Engine.create ~warm_start:false () in
      let results, summary = Engine.run_batch ~policy engine jobs in
      Array.iter (fun r -> check_result_invariants "faults" r jobs) results;
      if summary.Engine.failed <> 0 then
        QCheck.Test.fail_reportf "summary reports %d failed jobs"
          summary.Engine.failed;
      if
        summary.Engine.served_lp + summary.Engine.served_greedy
        + summary.Engine.served_online
        <> summary.Engine.jobs
      then QCheck.Test.fail_reportf "tier counts do not partition the batch";
      true)

(* ---------- bitwise determinism (satellite a) ----------------------------- *)

let run_to_json ~domains ~fault_seed ~rate jobs =
  let faults = Faultgen.create ~seed:fault_seed ~rate () in
  let policy = Engine.policy ~max_retries:1 ~faults () in
  (* warm-start off: cache interleaving is the one sanctioned source of
     cross-domain nondeterminism, and this test is about everything else *)
  let engine = Engine.create ~warm_start:false () in
  let results, _ = Engine.run_batch ~domains ~policy engine jobs in
  Engine.results_to_json results

let test_determinism_across_domains () =
  let jobs = mixed_jobs ~count:8 () in
  let j1 = run_to_json ~domains:1 ~fault_seed:7 ~rate:0.4 jobs in
  let j1' = run_to_json ~domains:1 ~fault_seed:7 ~rate:0.4 jobs in
  let j4 = run_to_json ~domains:4 ~fault_seed:7 ~rate:0.4 jobs in
  Alcotest.(check string) "same seed, same run" j1 j1';
  Alcotest.(check string) "domains 1 = domains 4" j1 j4

let test_rate_zero_matches_fault_free () =
  (* A zero-rate harness draws from every stream but never fires; results
     must be bitwise identical to running with no harness at all. *)
  let jobs = mixed_jobs ~count:4 () in
  let with_harness = run_to_json ~domains:1 ~fault_seed:3 ~rate:0.0 jobs in
  let engine = Engine.create ~warm_start:false () in
  let results, _ = Engine.run_batch engine jobs in
  Alcotest.(check string) "rate 0 = no harness" with_harness
    (Engine.results_to_json results)

(* ---------- full-pressure degradation ------------------------------------ *)

let test_rate_one_all_online () =
  (* rate 1.0 fires every site: LP attempts all fail, greedy fails, so the
     online tier (never injected) must serve every job. *)
  let jobs = mixed_jobs ~count:4 () in
  let faults = Faultgen.create ~seed:1 ~rate:1.0 () in
  let policy = Engine.policy ~max_retries:2 ~faults () in
  let engine = Engine.create ~warm_start:false () in
  let results, summary = Engine.run_batch ~policy engine jobs in
  Array.iter
    (fun r ->
      Alcotest.(check bool) "served online" true (r.Engine.tier = Some Engine.Tier_online);
      Alcotest.(check int) "all retries spent" 2 r.Engine.retries;
      check_result_invariants "rate-1" r jobs)
    results;
  Alcotest.(check int) "summary online count" (List.length jobs)
    summary.Engine.served_online;
  Alcotest.(check int) "summary retries" (2 * List.length jobs)
    summary.Engine.retries

(* ---------- warm-start rollback (satellite d) ----------------------------- *)

let random_packing_lp g ~nv ~nr =
  let c = Array.init nv (fun _ -> 1.0 +. Prng.float g 9.0) in
  let rows =
    Array.init nr (fun _ ->
        ( Array.init nv (fun _ -> Prng.float g 3.0),
          Simplex.Le,
          1.0 +. Prng.float g 5.0 ))
  in
  { Simplex.direction = Simplex.Maximize; c; rows }

let bits = Int64.bits_of_float

let test_warm_crash_rollback_bitwise () =
  (* Force the warm pivot-in to break down after mutating solver state: the
     rollback must restore the pristine cold start, so the result is
     bitwise identical to a solve that never saw the warm basis. *)
  for seed = 1 to 10 do
    let g = Prng.create ~seed in
    let p = random_packing_lp g ~nv:8 ~nr:5 in
    let _, basis, _ = Revised.solve_warm p in
    let basis = Option.get basis in
    let p' =
      { p with Simplex.c = Array.map (fun v -> v *. 1.1) p.Simplex.c }
    in
    let cold, cold_basis, _ = Revised.solve_warm p' in
    let crashed, crashed_basis, stats =
      Revised.solve_warm ~warm_start:basis ~inject_warm_crash:true p'
    in
    Alcotest.(check bool) "warm install rolled back" false stats.Revised.warm_used;
    if bits cold.Simplex.objective <> bits crashed.Simplex.objective then
      Alcotest.failf "seed %d: objective differs after rollback" seed;
    Array.iteri
      (fun i x ->
        if bits x <> bits crashed.Simplex.x.(i) then
          Alcotest.failf "seed %d: x.(%d) differs after rollback" seed i)
      cold.Simplex.x;
    Array.iteri
      (fun i y ->
        if bits y <> bits crashed.Simplex.duals.(i) then
          Alcotest.failf "seed %d: dual %d differs after rollback" seed i)
      cold.Simplex.duals;
    Alcotest.(check bool) "same final basis" true (cold_basis = crashed_basis)
  done

(* ---------- deadlines ----------------------------------------------------- *)

let test_expired_deadline_degrades () =
  let inst = Workloads.protocol_instance ~seed:5 ~n:12 ~k:2 () in
  let job = Engine.job ~seed:1 ~id:0 inst in
  let policy = Engine.policy ~deadline_s:0.0 ~max_retries:3 () in
  let engine = Engine.create ~warm_start:false () in
  let r = Engine.run_job_robust engine policy job in
  Alcotest.(check bool) "fell back" true
    (r.Engine.tier = Some Engine.Tier_greedy
    || r.Engine.tier = Some Engine.Tier_online);
  Alcotest.(check bool) "feasible" true
    (Allocation.is_feasible inst r.Engine.allocation);
  (match r.Engine.failures with
  | [ Failure.Timeout _ ] -> ()
  | fs ->
      Alcotest.failf "expected a single timeout, got [%s]"
        (String.concat "; " (List.map Failure.to_string fs)));
  Alcotest.(check int) "timeout is fatal: no retries burned" 0 r.Engine.retries

let test_generous_deadline_serves_lp () =
  let inst = Workloads.protocol_instance ~seed:5 ~n:12 ~k:2 () in
  let job = Engine.job ~seed:1 ~id:0 inst in
  let policy = Engine.policy ~deadline_s:60.0 () in
  let engine = Engine.create ~warm_start:false () in
  let r = Engine.run_job_robust engine policy job in
  Alcotest.(check bool) "lp tier" true (r.Engine.tier = Some Engine.Tier_lp);
  Alcotest.(check bool) "no failures" true (r.Engine.failures = [])

(* ---------- malformed jobs & fallback-off (satellite c) ------------------- *)

let malformed_job () =
  (* Derand over a per-channel conflict structure is the engine's canonical
     malformed job: the LP solves, the rounding stage rejects it. *)
  let inst = Workloads.asymmetric_instance ~seed:3 ~n:10 ~k:2 ~d:3 in
  Engine.job ~algorithm:Engine.Derand_seq ~seed:2 ~id:0 inst

let test_malformed_job_falls_back () =
  let job = malformed_job () in
  let engine = Engine.create ~warm_start:false () in
  let r = Engine.run_job_robust engine Engine.default_policy job in
  Alcotest.(check bool) "greedy tier" true (r.Engine.tier = Some Engine.Tier_greedy);
  (match r.Engine.failures with
  | [ Failure.Malformed_job _ ] -> ()
  | fs ->
      Alcotest.failf "expected a single malformed-job, got [%s]"
        (String.concat "; " (List.map Failure.to_string fs)));
  Alcotest.(check int) "malformed is fatal: no retries burned" 0 r.Engine.retries

let test_no_fallback_reports_failed () =
  let job = malformed_job () in
  let engine = Engine.create ~warm_start:false () in
  let policy = Engine.policy ~fallback:false () in
  let results, summary = Engine.run_batch ~policy engine [ job ] in
  let r = results.(0) in
  Alcotest.(check bool) "failed" true (r.Engine.tier = None);
  Alcotest.(check (float 0.0)) "empty allocation" 0.0 r.Engine.welfare;
  Alcotest.(check bool) "guarantee infinite" true (r.Engine.guarantee = infinity);
  Alcotest.(check int) "summary failed" 1 summary.Engine.failed;
  let json = Engine.results_to_json results in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "json emits failed record" true
    (contains json "\"status\":\"failed\"");
  Alcotest.(check bool) "json names the failure" true
    (contains json "\"malformed-job\"")

(* ---------- oracle solver: deadline & stall ------------------------------- *)

let test_oracle_deadline () =
  let inst = Workloads.protocol_instance ~seed:11 ~n:10 ~k:2 () in
  match Oracle_solver.solve ~deadline:(Timing.now () -. 1.0) inst with
  | _ -> Alcotest.fail "expected a timeout"
  | exception Failure.Error (Failure.Timeout { stage; _ }) ->
      Alcotest.(check string) "stage" "colgen" stage

let test_oracle_stall_modes () =
  let inst = Workloads.protocol_instance ~seed:11 ~n:10 ~k:2 () in
  (* max_rounds 1 can never certify optimality: `Fail must raise, `Accept
     must return the (restricted) master optimum. *)
  (match Oracle_solver.solve ~max_rounds:1 ~on_stall:`Fail inst with
  | _ -> Alcotest.fail "expected a colgen stall"
  | exception Failure.Error (Failure.Colgen_stall { rounds }) ->
      Alcotest.(check int) "rounds spent" 1 rounds);
  let frac, _ = Oracle_solver.solve ~max_rounds:1 ~on_stall:`Accept inst in
  Alcotest.(check bool) "accept returns a bounded objective" true
    (Float.is_finite frac.Sa_core.Lp_relaxation.objective)

(* ---------- fault generator ----------------------------------------------- *)

let test_faultgen_deterministic () =
  let f = Faultgen.create ~seed:42 ~rate:0.5 () in
  let draws () =
    let g = Faultgen.stream f ~job:3 ~attempt:1 in
    List.map (fun s -> Faultgen.fires f g s)
      [ Faultgen.Warm_install; Faultgen.Lp_solve; Faultgen.Round ]
  in
  Alcotest.(check (list bool)) "stream reproducible" (draws ()) (draws ());
  let zero = Faultgen.create ~seed:42 ~rate:0.0 () in
  let g = Faultgen.stream zero ~job:0 ~attempt:0 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "rate 0 never fires" false
      (Faultgen.fires zero g Faultgen.Lp_solve)
  done;
  let one = Faultgen.create ~seed:42 ~rate:1.0 () in
  let g = Faultgen.stream one ~job:0 ~attempt:0 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "rate 1 always fires" true
      (Faultgen.fires one g Faultgen.Lp_solve)
  done;
  Alcotest.check_raises "rate out of range"
    (Invalid_argument "Faultgen.create: rate must be in [0,1]") (fun () ->
      ignore (Faultgen.create ~rate:1.5 ()))

let test_injected_failures_shape () =
  List.iter
    (fun site ->
      let f = Faultgen.injected ~site ~job:7 in
      (match f with
      | Failure.Timeout _ ->
          Alcotest.fail "injected faults must never be timeouts"
      | _ -> ());
      Alcotest.(check bool) "label stable" true (String.length (Failure.label f) > 0))
    [ Faultgen.Warm_install; Faultgen.Lp_solve; Faultgen.Round; Faultgen.Greedy ]

(* ---------- summary JSON carries the resilience fields --------------------- *)

let test_summary_json_resilience_fields () =
  let jobs = mixed_jobs ~count:3 () in
  let engine = Engine.create ~warm_start:false () in
  let _, summary = Engine.run_batch engine jobs in
  let json = Engine.summary_to_json summary in
  List.iter
    (fun key ->
      let needle = Printf.sprintf "\"%s\":" key in
      let lh = String.length json and ln = String.length needle in
      let rec go i = i + ln <= lh && (String.sub json i ln = needle || go (i + 1)) in
      if not (go 0) then Alcotest.failf "summary JSON missing %s" key)
    [ "served_lp"; "served_greedy"; "served_online"; "failed"; "retries";
      "deadline_hits" ]

(* ---------- non-finite bids ----------------------------------------------- *)

(* [Instance.make] rejects NaN and infinite bids, but channel-value arrays
   stay mutable; a bid overwritten afterwards must be caught at intake, as
   a malformed job that no tier serves. *)
let test_non_finite_bid_malformed () =
  List.iter
    (fun x ->
      let values = Array.init 6 (fun _ -> [| 1.0; 2.0 |]) in
      let graph = Sa_graph.Graph.of_edges 6 [ (0, 1); (1, 2); (3, 4) ] in
      let inst =
        Instance.make ~conflict:(Instance.Unweighted graph) ~k:2
          ~bidders:(Array.map (fun a -> Sa_val.Valuation.Additive a) values)
          ~ordering:(Sa_graph.Ordering.identity 6) ~rho:1.0
      in
      values.(2).(1) <- x;
      let engine = Engine.create ~warm_start:false () in
      let results, summary =
        Engine.run_batch engine [ Engine.job ~seed:1 ~id:0 inst ]
      in
      let r = results.(0) in
      Alcotest.(check bool) "not served" true (r.Engine.tier = None);
      Alcotest.(check int) "summary failed" 1 summary.Engine.failed;
      Alcotest.(check (float 0.0)) "empty allocation" 0.0 r.Engine.welfare;
      match r.Engine.failures with
      | [ (Failure.Malformed_job _ as f) ] ->
          Alcotest.(check string) "label" "malformed-job" (Failure.label f)
      | fs ->
          Alcotest.failf "bid %h: expected one malformed-job, got [%s]" x
            (String.concat "; " (List.map Failure.to_string fs)))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_feasible_under_faults;
    Alcotest.test_case "bitwise determinism: runs and domains" `Quick
      test_determinism_across_domains;
    Alcotest.test_case "rate 0 harness = no harness" `Quick
      test_rate_zero_matches_fault_free;
    Alcotest.test_case "rate 1: online tier serves everything" `Quick
      test_rate_one_all_online;
    Alcotest.test_case "warm crash rollback is bitwise cold" `Quick
      test_warm_crash_rollback_bitwise;
    Alcotest.test_case "expired deadline degrades, no abort" `Quick
      test_expired_deadline_degrades;
    Alcotest.test_case "generous deadline stays on LP tier" `Quick
      test_generous_deadline_serves_lp;
    Alcotest.test_case "malformed job falls back to greedy" `Quick
      test_malformed_job_falls_back;
    Alcotest.test_case "no-fallback reports failed jobs in JSON" `Quick
      test_no_fallback_reports_failed;
    Alcotest.test_case "oracle solver honours deadlines" `Quick
      test_oracle_deadline;
    Alcotest.test_case "oracle solver stall modes" `Quick test_oracle_stall_modes;
    Alcotest.test_case "fault generator deterministic" `Quick
      test_faultgen_deterministic;
    Alcotest.test_case "injected failures well-shaped" `Quick
      test_injected_failures_shape;
    Alcotest.test_case "summary JSON resilience fields" `Quick
      test_summary_json_resilience_fields;
      Alcotest.test_case "non-finite bid is a malformed job, not served" `Quick
      test_non_finite_bid_malformed;
  ]
