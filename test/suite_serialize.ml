(* Tests for the plain-text instance/allocation (de)serialization. *)

module Prng = Sa_util.Prng
module Bundle = Sa_val.Bundle
module Valuation = Sa_val.Valuation
module Instance = Sa_core.Instance
module Allocation = Sa_core.Allocation
module Serialize = Sa_core.Serialize
module Workloads = Sa_exp.Workloads

(* Structural equality of instances via their observable behaviour: sizes,
   parameters, pairwise conflict weights on all channels, valuations on all
   bundles (k is small in the fixtures). *)
let instances_equal a b =
  let n = Instance.n a and k = a.Instance.k in
  Instance.n b = n
  && b.Instance.k = k
  && Float.abs (a.Instance.rho -. b.Instance.rho) < 1e-12
  && Sa_graph.Ordering.to_order a.Instance.ordering
     = Sa_graph.Ordering.to_order b.Instance.ordering
  &&
  let weights_equal = ref true in
  for j = 0 to k - 1 do
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if u <> v then
          if
            Float.abs
              (Instance.wbar a ~channel:j u v -. Instance.wbar b ~channel:j u v)
            > 1e-12
          then weights_equal := false
      done
    done
  done;
  let values_equal = ref true in
  List.iter
    (fun mask ->
      let bundle = Bundle.of_int mask in
      for v = 0 to n - 1 do
        if
          Float.abs
            (Valuation.value a.Instance.bidders.(v) bundle
            -. Valuation.value b.Instance.bidders.(v) bundle)
          > 1e-12
        then values_equal := false
      done)
    (List.map Bundle.to_int (Bundle.all_subsets k));
  !weights_equal && !values_equal

let roundtrip inst =
  Serialize.instance_of_string (Serialize.instance_to_string inst)

let test_roundtrip_unweighted () =
  let inst = Workloads.protocol_instance ~seed:11 ~n:12 ~k:3 () in
  Alcotest.(check bool) "roundtrip equal" true (instances_equal inst (roundtrip inst))

let test_roundtrip_weighted () =
  let inst, _ =
    Workloads.sinr_fixed_instance ~seed:12 ~n:10 ~k:2
      ~scheme:Sa_wireless.Sinr.Uniform ()
  in
  Alcotest.(check bool) "roundtrip equal" true (instances_equal inst (roundtrip inst))

let test_roundtrip_per_channel () =
  let inst = Workloads.asymmetric_instance ~seed:13 ~n:12 ~k:3 ~d:4 in
  Alcotest.(check bool) "roundtrip equal" true (instances_equal inst (roundtrip inst))

let test_roundtrip_per_channel_weighted () =
  let inst, _ = Workloads.asymmetric_weighted_instance ~seed:14 ~n:8 ~k:2 () in
  Alcotest.(check bool) "roundtrip equal" true (instances_equal inst (roundtrip inst))

let test_roundtrip_all_languages () =
  let graph = Sa_graph.Graph.of_edges 6 [ (0, 1); (2, 3); (4, 5) ] in
  let bidders =
    [|
      Valuation.Xor [ (Bundle.of_list [ 0 ], 3.5); (Bundle.of_list [ 0; 1 ], 5.25) ];
      Valuation.Additive [| 1.0; 2.0 |];
      Valuation.Unit_demand [| 4.0; 0.5 |];
      Valuation.Symmetric [| 0.0; 2.0; 3.0 |];
      Valuation.Budget_additive { values = [| 2.0; 3.0 |]; budget = 4.0 };
      Valuation.Or_bids [ (Bundle.singleton 0, 1.5); (Bundle.singleton 1, 2.5) ];
    |]
  in
  let inst =
    Instance.make ~conflict:(Instance.Unweighted graph) ~k:2 ~bidders
      ~ordering:(Sa_graph.Ordering.identity 6) ~rho:1.0
  in
  Alcotest.(check bool) "roundtrip equal" true (instances_equal inst (roundtrip inst))

let test_lp_value_survives () =
  (* End-to-end: the LP optimum of a reloaded instance is identical. *)
  let inst = Workloads.protocol_instance ~seed:15 ~n:12 ~k:2 () in
  let a = (Sa_core.Lp_relaxation.solve_explicit inst).Sa_core.Lp_relaxation.objective in
  let b =
    (Sa_core.Lp_relaxation.solve_explicit (roundtrip inst)).Sa_core.Lp_relaxation.objective
  in
  Alcotest.(check (float 1e-9)) "same LP optimum" a b

let test_allocation_roundtrip () =
  let alloc = Allocation.empty 5 in
  alloc.(1) <- Bundle.of_list [ 0; 2 ];
  alloc.(4) <- Bundle.of_list [ 1 ];
  let alloc' = Serialize.allocation_of_string (Serialize.allocation_to_string alloc) in
  Alcotest.(check bool) "equal" true (alloc = alloc')

let test_file_roundtrip () =
  let inst = Workloads.disk_instance ~seed:16 ~n:10 ~k:2 () in
  let path = Filename.temp_file "specauction" ".inst" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.save_instance path inst;
      Alcotest.(check bool) "file roundtrip" true
        (instances_equal inst (Serialize.load_instance path)))

let test_malformed_rejected () =
  let check_fails name s =
    match Serialize.instance_of_string s with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "%s: malformed input accepted" name
  in
  check_fails "empty" "";
  check_fails "bad header" "nonsense 1\n";
  check_fails "bad version" "specauction-instance 99\n";
  check_fails "truncated"
    "specauction-instance 1\nn 2 k 1 rho 1\nordering 0 1\nconflict unweighted\n";
  check_fails "bad edge"
    "specauction-instance 1\nn 2 k 1 rho 1\nordering 0 1\nconflict unweighted\nedge 0 x\nend\nend\n"

let prop_roundtrip_random =
  QCheck.Test.make ~name:"serialize roundtrip (random protocol instances)"
    ~count:20
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let inst = Workloads.protocol_instance ~seed ~n:10 ~k:2 () in
      instances_equal inst (roundtrip inst))

(* ---------- mutation fuzz: only the documented [Failure] ------------------ *)

(* Serialised fixtures covering every section of each format: unweighted,
   SINR (edge-weighted) and asymmetric (per-channel) instances with mixed
   bidding languages and availability masks, an allocation, a workload. *)
let fuzz_instances =
  lazy
    (let g = Prng.create ~seed:5 in
     let mixed inst =
       let k = inst.Instance.k in
       let bidders =
         Array.map
           (fun _ -> Sa_val.Gen.random_mixed g ~k ~dist:(Sa_val.Gen.Uniform (1.0, 5.0)))
           inst.Instance.bidders
       in
       let remade =
         Instance.make ~conflict:inst.Instance.conflict ~k ~bidders
           ~ordering:inst.Instance.ordering ~rho:inst.Instance.rho
       in
       Instance.with_available remade
         (Array.init (Instance.n inst) (fun _ -> Bundle.of_int (Prng.int g (1 lsl k))))
     in
     [|
       Workloads.protocol_instance ~seed:3 ~n:8 ~k:3 ();
       mixed (Workloads.protocol_instance ~seed:4 ~n:6 ~k:2 ());
       fst (Workloads.sinr_fixed_instance ~seed:5 ~n:6 ~k:2 ~scheme:Sa_wireless.Sinr.Uniform ());
       mixed (Workloads.asymmetric_instance ~seed:6 ~n:6 ~k:3 ~d:2);
     |]
     |> Array.map Serialize.instance_to_string)

let fuzz_allocation =
  lazy
    (let alloc = Allocation.empty 12 in
     alloc.(2) <- Bundle.of_list [ 0; 1 ];
     alloc.(7) <- Bundle.of_list [ 2 ];
     alloc.(11) <- Bundle.of_list [ 0; 3 ];
     Serialize.allocation_to_string alloc)

(* [fixture seed] picks the text to mutate, [parse] reads it. *)
let only_failure ~what ~fixture ~parse =
  QCheck.Test.make ~name:(Printf.sprintf "%s parser: byte mutations raise only Failure" what)
    ~count:1500
    QCheck.(int_range 0 max_int)
    (fun seed ->
      let text = Fuzz.mutate (Prng.create ~seed) (fixture seed) in
      match parse text with
      | () -> true
      | exception Failure _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "raised %s on:\n%s" (Printexc.to_string e) text)

let prop_instance_mutations =
  only_failure ~what:"instance"
    ~fixture:(fun seed ->
      let fixtures = Lazy.force fuzz_instances in
      fixtures.(seed mod Array.length fixtures))
    ~parse:(fun t -> ignore (Serialize.instance_of_string t))

let prop_allocation_mutations =
  only_failure ~what:"allocation"
    ~fixture:(fun _ -> Lazy.force fuzz_allocation)
    ~parse:(fun t -> ignore (Serialize.allocation_of_string t))

let prop_workload_mutations =
  only_failure ~what:"workload"
    ~fixture:(fun _ -> Sa_engine.Workload.to_string Sa_engine.Workload.demo)
    ~parse:(fun t -> ignore (Sa_engine.Workload.of_string t))

let test_sizes_checked_before_allocation () =
  let check_fails name s =
    match Serialize.instance_of_string s with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "%s: accepted" name
  in
  let head = "specauction-instance 1\n" in
  check_fails "negative n" (head ^ "n -3 k 1 rho 1\nordering\n");
  check_fails "n beyond the ordering" (head ^ "n 4000000000000 k 1 rho 1\nordering 0\n");
  check_fails "k out of range" (head ^ "n 1 k 99 rho 1\nordering 0\n");
  check_fails "bid count beyond the input"
    (head ^ "n 1 k 1 rho 1\nordering 0\nconflict unweighted\nend\nbidder 0 xor 4000000000000\n");
  (match Serialize.allocation_of_string "specauction-allocation 1\nn -2\nend\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "negative allocation size accepted");
  match Serialize.instance_of_string (head ^ "nonsense\n") with
  | exception Failure msg ->
      Alcotest.(check string) "line number of the offending line"
        "Serialize: line 2: expected 'n <n> k <k> rho <rho>'" msg
  | _ -> Alcotest.fail "accepted"

let fuzz_rand () = Random.State.make [| 2026 |]

let suite =
  [
    Alcotest.test_case "roundtrip unweighted" `Quick test_roundtrip_unweighted;
    Alcotest.test_case "roundtrip edge-weighted" `Quick test_roundtrip_weighted;
    Alcotest.test_case "roundtrip per-channel" `Quick test_roundtrip_per_channel;
    Alcotest.test_case "roundtrip per-channel-weighted" `Quick test_roundtrip_per_channel_weighted;
    Alcotest.test_case "roundtrip all bidding languages" `Quick test_roundtrip_all_languages;
    Alcotest.test_case "LP value survives reload" `Quick test_lp_value_survives;
    Alcotest.test_case "allocation roundtrip" `Quick test_allocation_roundtrip;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "malformed inputs rejected" `Quick test_malformed_rejected;
    QCheck_alcotest.to_alcotest prop_roundtrip_random;
    Alcotest.test_case "sizes checked before allocation" `Quick
      test_sizes_checked_before_allocation;
    QCheck_alcotest.to_alcotest ~rand:(fuzz_rand ()) prop_instance_mutations;
    QCheck_alcotest.to_alcotest ~rand:(fuzz_rand ()) prop_allocation_mutations;
    QCheck_alcotest.to_alcotest ~rand:(fuzz_rand ()) prop_workload_mutations;
  ]
