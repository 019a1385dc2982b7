(* QCheck property suite: allocation feasibility and bundle containment for
   every rounding path (including the batch engine), parallel/sequential
   derandomization equivalence, engine batch determinism under sharding,
   and serialization round-trips. *)

module Prng = Sa_util.Prng
module Floats = Sa_util.Floats
module Bundle = Sa_val.Bundle
module Valuation = Sa_val.Valuation
module Instance = Sa_core.Instance
module Allocation = Sa_core.Allocation
module Lp = Sa_core.Lp_relaxation
module Rounding = Sa_core.Rounding
module Greedy = Sa_core.Greedy
module Derand = Sa_core.Derand
module Parallel = Sa_core.Parallel
module Serialize = Sa_core.Serialize
module Workloads = Sa_exp.Workloads
module Engine = Sa_engine.Engine
module Workload = Sa_engine.Workload

(* ---------- fixtures ---------------------------------------------------- *)

(* Alternate between the two geometric conflict models the paper benchmarks:
   protocol (pairwise interference radii) and disk (unit disks). *)
let random_geometric_instance seed =
  let n = 8 + (seed mod 9) and k = 2 + (seed mod 3) in
  if seed mod 2 = 0 then Workloads.protocol_instance ~seed ~n ~k ()
  else Workloads.disk_instance ~seed ~n ~k ()

(* ---------- allocation sanity ------------------------------------------- *)

(* A returned allocation must (a) give each channel an independent holder
   set and (b) never hand a bidder channels outside a bundle it asked for:
   every non-empty allocated bundle is one of the bidder's support bundles
   (clipped to its availability). *)
let requested_bundles inst v =
  Valuation.support inst.Instance.bidders.(v) ~k:inst.Instance.k
  |> List.map (fun (b, _) -> Instance.restrict_bundle inst ~bidder:v b)

let bundle_requested inst v b =
  Bundle.is_empty b
  || List.exists (fun r -> Bundle.to_int r = Bundle.to_int b) (requested_bundles inst v)

let check_allocation ~what inst alloc =
  if not (Allocation.is_feasible inst alloc) then
    QCheck.Test.fail_reportf "%s: infeasible allocation (violations on %d channels)"
      what
      (List.length (Allocation.violations inst alloc));
  Array.iteri
    (fun v b ->
      if not (bundle_requested inst v b) then
        QCheck.Test.fail_reportf "%s: bidder %d allocated unrequested bundle %d" what v
          (Bundle.to_int b))
    alloc;
  true

let prop_allocations_feasible_and_requested =
  QCheck.Test.make
    ~name:"rounding/greedy/engine allocations: independent per channel, only requested bundles"
    ~count:25
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let inst = random_geometric_instance seed in
      let frac = Lp.solve_explicit inst in
      let g = Prng.create ~seed in
      ignore (check_allocation ~what:"rounding" inst (Rounding.solve ~trials:3 g inst frac));
      ignore
        (check_allocation ~what:"adaptive" inst
           (Rounding.solve_adaptive ~trials:3 g inst frac));
      ignore (check_allocation ~what:"greedy" inst (Greedy.from_lp inst frac));
      let engine = Engine.create ~warm_start:true () in
      let job = Engine.job ~algorithm:Engine.Adaptive ~seed ~trials:3 ~id:0 inst in
      let r = Engine.run_job engine job in
      ignore (check_allocation ~what:"engine" inst r.Engine.allocation);
      (* the engine's welfare accounting must match the allocation it returns *)
      Floats.approx_eq r.Engine.welfare (Allocation.value inst r.Engine.allocation))

(* ---------- derandomization equivalence --------------------------------- *)

let prop_parallel_derand_equals_sequential =
  QCheck.Test.make
    ~name:"Parallel.derand1 welfare = Derand.algorithm1_derand welfare" ~count:15
    QCheck.(pair (int_range 1 10_000) (int_range 1 3))
    (fun (seed, domains) ->
      let inst = Workloads.protocol_instance ~seed ~n:(10 + (seed mod 6)) ~k:2 () in
      let frac = Lp.solve_explicit inst in
      let seq = Derand.algorithm1_derand inst frac in
      let par = Parallel.derand1 ~domains inst frac in
      if not (Allocation.is_feasible inst par) then
        QCheck.Test.fail_reportf "parallel derand infeasible (seed %d)" seed;
      (* not only the welfare: the very allocation the sequential scan picks *)
      par = seq
      && Int64.equal
           (Int64.bits_of_float (Allocation.value inst par))
           (Int64.bits_of_float (Allocation.value inst seq)))

(* ---------- engine determinism under sharding ---------------------------- *)

let render results =
  results
  |> Array.map (fun r -> Serialize.allocation_to_string r.Engine.allocation)
  |> Array.to_list |> String.concat "--\n"

let prop_engine_batch_deterministic =
  QCheck.Test.make
    ~name:"engine batches byte-identical: sequential vs sharded (warm off)" ~count:8
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let specs =
        [
          Workload.spec ~model:Workload.Protocol ~n:10 ~k:2 ~seed ~repeat:3 ();
          Workload.spec ~model:Workload.Random_graph ~n:9 ~k:2 ~seed:(seed + 1)
            ~algorithm:Engine.Lp_round ~repeat:2 ();
        ]
      in
      (* warm start off: each job depends only on its own seed, so results
         must be byte-identical whatever the domain count — and identical to
         running each job alone on a fresh engine. *)
      let batch domains =
        let engine = Engine.create ~warm_start:false () in
        let jobs = Workload.expand engine specs in
        fst (Engine.run_batch ~domains engine jobs)
      in
      let seq = batch 1 and par = batch 3 in
      let single =
        let engine = Engine.create ~warm_start:false () in
        Workload.expand engine specs
        |> List.map (fun j ->
               Engine.run_job (Engine.create ~warm_start:false ()) j)
        |> Array.of_list
      in
      let a = render seq and b = render par and c = render single in
      if a <> b then QCheck.Test.fail_reportf "1-domain and 3-domain batches differ";
      if a <> c then QCheck.Test.fail_reportf "batch and single-job runs differ";
      true)

(* ---------- serialization round-trip ------------------------------------ *)

let prop_serialize_round_trip =
  QCheck.Test.make ~name:"instance serialization round-trips (incl. fingerprint)"
    ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let inst = random_geometric_instance seed in
      let text = Serialize.instance_to_string inst in
      let back = Serialize.instance_of_string text in
      (* the round-trip must preserve everything the format captures:
         re-serialising gives the same bytes, hence the same fingerprint *)
      if Serialize.instance_to_string back <> text then
        QCheck.Test.fail_reportf "re-serialisation differs (seed %d)" seed;
      if Serialize.fingerprint back <> Serialize.fingerprint inst then
        QCheck.Test.fail_reportf "fingerprint not preserved (seed %d)" seed;
      if Serialize.shape_fingerprint back <> Serialize.shape_fingerprint inst then
        QCheck.Test.fail_reportf "shape fingerprint not preserved (seed %d)" seed;
      (* spot-check semantic equality: same n/k and same value on every
         support bundle of every bidder *)
      if Instance.n back <> Instance.n inst || back.Instance.k <> inst.Instance.k then
        QCheck.Test.fail_reportf "n/k not preserved (seed %d)" seed;
      Array.iteri
        (fun v bidder ->
          List.iter
            (fun (b, _) ->
              let value = Valuation.value bidder b
              and value' = Valuation.value back.Instance.bidders.(v) b in
              if not (Floats.approx_eq ~eps:1e-9 value value') then
                QCheck.Test.fail_reportf
                  "bidder %d: value of bundle %d changed %.9f -> %.9f" v
                  (Bundle.to_int b) value value')
            (Valuation.support bidder ~k:inst.Instance.k))
        inst.Instance.bidders;
      true)

let prop_revalue_preserves_shape =
  QCheck.Test.make
    ~name:"Workload.revalue preserves the LP shape fingerprint, not the full one"
    ~count:20
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let inst = random_geometric_instance seed in
      let jittered = Workload.revalue ~seed:(seed + 17) inst in
      Serialize.shape_fingerprint jittered = Serialize.shape_fingerprint inst
      && Serialize.fingerprint jittered <> Serialize.fingerprint inst)

(* ---------- registration ------------------------------------------------- *)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_allocations_feasible_and_requested;
    QCheck_alcotest.to_alcotest prop_parallel_derand_equals_sequential;
    QCheck_alcotest.to_alcotest prop_engine_batch_deterministic;
    QCheck_alcotest.to_alcotest prop_serialize_round_trip;
    QCheck_alcotest.to_alcotest prop_revalue_preserves_shape;
  ]
