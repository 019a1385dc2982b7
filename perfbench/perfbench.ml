(* End-to-end auction-serving benchmark.

   Replays seeded, generated workloads through the batch engine's public
   API the way [auction serve] does: one process, one domain, a closed
   loop (the next job is submitted only after the previous one returned).

   Untraced run ([--trace 0]): trace-ring recording is off.  Each pass
   sets up a fresh engine ([Engine.create] + [Workload.expand], timed as
   set-up) and then runs every job through [Engine.run_job_robust], timing
   each call from outside.  Passes repeat until [--seconds] have elapsed.

   Traced run ([--trace 1]): each pass expands the workload batch by batch
   inside benchmark-owned spans, runs the jobs through the engine with
   tracing off and again with tracing on (the ratio is the cost of
   tracing), then replays every job's LP-tier path through the layers'
   public entry points inside benchmark-owned spans.  The spans the
   program already emits ([lp.revised.solve], [core.colgen.solve],
   [graph.rho]) nest under those, so LP build time separates from simplex
   time.  The result is the per-layer ledger.

   Every job is checked: served by the LP tier, feasible, welfare within
   the LP bound, and (traced run) the replay's LP objective equal to the
   engine's.  Results must serialise to the same digest on every pass.
   The last stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module Engine = Sa_engine.Engine
module Workload = Sa_engine.Workload
module Instance = Sa_core.Instance
module Allocation = Sa_core.Allocation
module Lp = Sa_core.Lp_relaxation
module Oracle_solver = Sa_core.Oracle_solver
module Rounding = Sa_core.Rounding
module Greedy = Sa_core.Greedy
module Derand = Sa_core.Derand
module Serialize = Sa_core.Serialize
module Prng = Sa_util.Prng
module Timing = Sa_util.Timing
module Metrics = Sa_telemetry.Metrics
module Trace = Sa_telemetry.Trace
module Export = Sa_telemetry.Export

(* ------------------------------- workloads ------------------------------- *)

(* Every workload is a list of [Workload.spec] generated from the seed;
   the engine sees nothing else.  Topology seeds are drawn from one PRNG
   stream, so the same seed gives the same specs. *)

type workload = { name : string; specs : int -> Workload.spec list }

(* A batch description: shape, algorithms, rounds per batch, and how many
   independent topologies of that shape.  [batches] draws the topology
   seeds in list order, one per topology; each topology gets one batch per
   algorithm, so later batches hit the engine's topology cache and every
   round after the first of a shape hits its basis cache. *)
type family = {
  model : Workload.model;
  n : int;
  k : int;
  algorithms : Engine.algorithm list;
  rounds : int;
  topologies : int;
}

let family ?(topologies = 1) ?(rounds = 1) model n k algorithms =
  { model; n; k; algorithms; rounds; topologies }

let batches g families =
  List.concat_map
    (fun f ->
      List.concat
        (List.init f.topologies (fun _ ->
             let seed = 1 + Prng.int g 999_999 in
             List.map
               (fun algorithm ->
                 Workload.spec ~model:f.model ~n:f.n ~k:f.k ~seed ~algorithm
                   ~repeat:f.rounds ())
               f.algorithms)))
    families

let explicit = [ Engine.Adaptive; Engine.Lp_round; Engine.Greedy_lp ]

(* Shares are chosen so that the median and the 90th percentile fall
   inside a cluster of similar jobs rather than on the edge between two:
   a percentile on an edge is set by the slowest job of one cluster and
   jumps with it. *)

(* Job shares: disk n=150 24%, protocol n=200 40% (holds the median),
   random 12%, disk n=300 16% (holds the 90th percentile), and small
   shares of the colgen and derand paths so that every ledger layer is
   measured on every workload. *)
let repeat_warm seed =
  batches (Prng.create ~seed)
    [
      family Workload.Disk 150 6 explicit ~topologies:3 ~rounds:4;
      family Workload.Protocol 200 4 explicit ~topologies:4 ~rounds:5;
      family Workload.Random_graph 200 4 explicit ~topologies:2 ~rounds:3;
      family Workload.Disk 300 4 explicit ~topologies:2 ~rounds:4;
      family Workload.Protocol 100 4 [ Engine.Oracle_round ] ~rounds:9;
      family Workload.Protocol 20 2 [ Engine.Derand_seq ] ~rounds:3;
    ]

(* Eleven rounds of eleven one-job batches, each on a topology of its
   own: three cheap SINR/asymmetric jobs, one colgen job, three random
   n=250 jobs (hold the median), two disk n=300 jobs and two derand jobs
   (hold the 90th percentile).  SINR stays at n <= 50: from n = 50 to 60
   the rho estimate's cost is heavy-tailed (99th percentile 25x the
   median), and set-up time would swing by half from seed to seed. *)
let fresh_cold seed =
  let g = Prng.create ~seed in
  List.concat
    (List.init 11 (fun round ->
         let algorithm = List.nth explicit (round mod 3) in
         let sinr () =
           let n = 40 + Prng.int g 11 in
           family Workload.Sinr n (3 + Prng.int g 2) [ algorithm ]
         in
         let first = sinr () in
         let second = sinr () in
         batches g
           [
             first;
             second;
             family Workload.Asymmetric 100 4 [ algorithm ];
             family Workload.Protocol 150 8 [ Engine.Oracle_round ];
             family Workload.Random_graph 250 4 [ algorithm ] ~topologies:3;
             family Workload.Disk 300 4 [ algorithm ] ~topologies:2;
             family Workload.Protocol 40 3 [ Engine.Derand_seq ] ~topologies:2;
           ]))

(* Oracle jobs on nine topologies with eleven revalued rounds each, plus
   small shares of the explicit-LP and derand paths. *)
let colgen_pool seed =
  batches (Prng.create ~seed)
    [
      family Workload.Clique 60 8 [ Engine.Oracle_round ] ~topologies:3 ~rounds:11;
      family Workload.Protocol 150 8 [ Engine.Oracle_round ] ~topologies:3 ~rounds:11;
      family Workload.Disk 200 6 [ Engine.Oracle_round ] ~topologies:3 ~rounds:11;
      family Workload.Disk 150 4 [ Engine.Adaptive ] ~rounds:4;
      family Workload.Protocol 20 2 [ Engine.Derand_seq ] ~rounds:2;
    ]

let workloads =
  [
    { name = "repeat-warm"; specs = repeat_warm };
    { name = "fresh-cold"; specs = fresh_cold };
    { name = "colgen-pool"; specs = colgen_pool };
  ]

(* -------------------------------- helpers -------------------------------- *)

let ms s = s *. 1e3
let mb bytes = bytes /. 1e6

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile over raw samples. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let ratio num den = if den = 0.0 then 0.0 else num /. den

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)


(* Counter deltas around a call, read from the handles of the program's
   own well-known counters. *)
let counted =
  [|
    "lp.revised.pivots";
    "lp.revised.refactorizations";
    "lp.revised.warm_attempts";
    "lp.revised.warm_installs";
    "core.colgen.rounds";
    "core.colgen.oracle_calls";
    "core.colgen.columns";
    "core.colgen.pool.hits";
    "core.colgen.pool.misses";
    "core.rounding.trials";
    "core.derand.candidates";
    "engine.topology.hits";
    "engine.topology.misses";
    "engine.basis.lookups";
    "engine.basis.hits";
  |]

let handles = Array.map (fun name -> Metrics.counter name) counted

let index_of name =
  let rec go i = if counted.(i) = name then i else go (i + 1) in
  go 0

type tally = { counts : int array; mutable alloc : float }

let tally () = { counts = Array.make (Array.length counted) 0; alloc = 0.0 }
let count t name = float_of_int t.counts.(index_of name)

(* Adds the counter and allocation deltas of [f ()] to [t]. *)
let with_counter_delta t f =
  let before = Array.map Metrics.counter_value handles in
  let a0 = Gc.allocated_bytes () in
  let r = f () in
  t.alloc <- t.alloc +. (Gc.allocated_bytes () -. a0);
  Array.iteri
    (fun i h -> t.counts.(i) <- t.counts.(i) + Metrics.counter_value h - before.(i))
    handles;
  r

(* ------------------------------ engine pass ------------------------------ *)

let setup specs =
  let engine = Engine.create () in
  (engine, Workload.expand engine specs)

type pass = {
  results : Engine.result array;
  latencies : float array;  (** seconds, one per job *)
  wall : float;
}

(* Closed loop: one client, the next job after the previous returned. *)
let run_jobs engine jobs =
  let jobs = Array.of_list jobs in
  let latencies = Array.make (Array.length jobs) 0.0 in
  let t0 = Timing.now () in
  let results =
    Array.mapi
      (fun i job ->
        let start = Timing.now () in
        let r = Engine.run_job_robust engine Engine.default_policy job in
        latencies.(i) <- Timing.now () -. start;
        r)
      jobs
  in
  { results; latencies; wall = Timing.now () -. t0 }

let digest results = Digest.to_hex (Digest.string (Engine.results_to_json results))

(* ------------------------------ output checks ----------------------------- *)

type checks = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let fail_job checks msg =
  checks.failed <- checks.failed + 1;
  if List.length checks.notes < 10 then checks.notes <- msg :: checks.notes

let within_lp_bound ~welfare ~objective =
  welfare <= objective +. (Sa_lp.Tol.cert_eps *. Float.max 1.0 (Float.abs objective))

(* [extra job result] returns further problems for the job (the traced
   replay's disagreement, say); a job with any problem counts once. *)
let check_pass checks ?(extra = fun _ _ -> []) jobs (p : pass) =
  List.iteri
    (fun i (job : Engine.job) ->
      let r = p.results.(i) in
      let inst = job.Engine.instance in
      let problems =
        (if r.Engine.tier = Some Engine.Tier_lp then []
         else [ "not served by the LP tier" ])
        @ (if Allocation.is_feasible inst r.Engine.allocation then []
           else [ "infeasible allocation" ])
        @ (if within_lp_bound ~welfare:r.Engine.welfare ~objective:r.Engine.lp_objective
           then []
           else [ Printf.sprintf "welfare %.9g above LP bound %.9g" r.Engine.welfare
                    r.Engine.lp_objective ])
        @ extra job r
      in
      checks.attempted <- checks.attempted + 1;
      if problems <> [] then
        fail_job checks
          (Printf.sprintf "job %d: %s" job.Engine.id (String.concat "; " problems)))
    jobs

(* Every pass of a run replays the same jobs, so every pass must serialise
   to the same bytes. *)
let check_digest checks ~expected d =
  match !expected with
  | None -> expected := Some d
  | Some e when e = d -> ()
  | Some e -> fail_job checks (Printf.sprintf "results digest %s differs from %s" d e)

(* ------------------------------- reporting ------------------------------- *)

type metric = { mname : string; unit_ : string; value : float; samples : int }

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      Printf.printf "  %-28s %14.6f %-6s (n=%d)\n" m.mname m.value m.unit_ m.samples)
    metrics;
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.mname
          (Export.float_str m.value) m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

(* ----------------------------- untraced run ------------------------------ *)

let min_passes = 2
let min_setup_samples = 7

(* One untimed pass first, so heap growth and the domain's LP workspace
   arena reach their steady size before anything is timed.  It is checked
   like the timed passes. *)
let warm_up checks ~expected specs =
  let engine, jobs = setup specs in
  let p = run_jobs engine jobs in
  check_pass checks jobs p;
  check_digest checks ~expected (digest p.results)

let untraced ~specs ~seconds checks =
  Trace.set_enabled false;
  let expected = ref None in
  warm_up checks ~expected specs;
  let deadline = Timing.now () +. seconds in
  (* per-pass statistics, reported as medians over passes so that one
     pass slowed by a noisy neighbour does not move the result *)
  let setups = ref [] and throughput = ref [] and p50 = ref [] and p90 = ref [] in
  let passes = ref 0 and samples = ref 0 and jobs_per_pass = ref 0 in
  let welfare_ratio = ref 0.0 in
  while !passes < min_passes || Timing.now () < deadline do
    let (engine, jobs), setup_s = Timing.time (fun () -> setup specs) in
    setups := setup_s :: !setups;
    let p = run_jobs engine jobs in
    check_pass checks jobs p;
    check_digest checks ~expected (digest p.results);
    let n = Array.length p.results in
    let lat_ms = Array.to_list (Array.map ms p.latencies) in
    throughput := (float_of_int n /. p.wall) :: !throughput;
    p50 := percentile lat_ms 0.50 :: !p50;
    p90 := percentile lat_ms 0.90 :: !p90;
    samples := !samples + n;
    jobs_per_pass := n;
    let sum f = Array.fold_left (fun acc r -> acc +. f r) 0.0 p.results in
    welfare_ratio :=
      sum (fun r -> r.Engine.welfare) /. sum (fun r -> r.Engine.lp_objective);
    incr passes
  done;
  (* set-up is cheap next to the job phase: top the samples up so its
     median rests on several set-ups *)
  while List.length !setups < min_setup_samples do
    setups := Timing.time_only (fun () -> ignore (setup specs)) :: !setups
  done;
  let top_heap = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) in
  Printf.printf "perfbench: %d passes of %d jobs, %d set-ups, results digest %s\n"
    !passes !jobs_per_pass (List.length !setups)
    (Option.value ~default:"-" !expected);
  Printf.printf "perfbench: jobs/s by pass: %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.1f") !throughput));
  [
    { mname = "jobs_per_s"; unit_ = "1/s"; value = median !throughput; samples = !samples };
    { mname = "job_p50_ms"; unit_ = "ms"; value = median !p50; samples = !samples };
    { mname = "job_p90_ms"; unit_ = "ms"; value = median !p90; samples = !samples };
    { mname = "setup_s"; unit_ = "s"; value = median !setups; samples = List.length !setups };
    { mname = "welfare_ratio"; unit_ = "ratio"; value = !welfare_ratio; samples = !passes };
    {
      mname = "ok_share";
      unit_ = "ratio";
      value = 1.0 -. ratio (float_of_int checks.failed) (float_of_int checks.attempted);
      samples = checks.attempted;
    };
    { mname = "peak_heap_mb"; unit_ = "MB"; value = mb top_heap; samples = 1 };
  ]

(* ------------------------------ traced run ------------------------------- *)

(* Benchmark-owned span names; their histograms are made once. *)
let span_expand = "perfbench.workload.expand"
let span_job = "perfbench.job"
let span_lp = "perfbench.lp_relaxation.solve"
let span_oracle = "perfbench.oracle_solver.solve"
let span_fingerprint = "perfbench.serialize.conflict_fingerprint"
let span_rounding = "perfbench.rounding"
let span_derand = "perfbench.derand"

let hists =
  List.map
    (fun name -> (name, Metrics.histogram (name ^ ".seconds")))
    [ span_expand; span_job; span_lp; span_oracle; span_fingerprint; span_rounding; span_derand ]

let span ?attrs name f = Trace.with_span ~hist:(List.assoc name hists) ?attrs name f

(* Re-number jobs expanded one batch at a time, as [Workload.expand] over
   the whole list numbers them. *)
let renumber jobs =
  List.mapi
    (fun id (j : Engine.job) ->
      Engine.job ~algorithm:j.Engine.algorithm ~seed:j.Engine.seed ~trials:j.Engine.trials
        ?shape_key:j.Engine.shape_key ~id j.Engine.instance)
    jobs

(* Time spent in each benchmark span and in the program's spans nested
   under it (attributed to the nearest benchmark-owned ancestor). *)
type span_totals = {
  own : (string, float) Hashtbl.t;  (** benchmark span name -> total seconds *)
  nested : (string * string, float) Hashtbl.t;
      (** (benchmark span, program span) -> total seconds *)
}

let is_bench_span name = String.length name > 10 && String.sub name 0 10 = "perfbench."

let span_totals spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace by_id s.Trace.id s) spans;
  let rec bench_ancestor (s : Trace.span) =
    match s.Trace.parent with
    | None -> None
    | Some p -> (
        match Hashtbl.find_opt by_id p with
        | None -> None
        | Some ps when is_bench_span ps.Trace.name && ps.Trace.name <> span_job ->
            Some ps.Trace.name
        | Some ps -> bench_ancestor ps)
  in
  let t = { own = Hashtbl.create 8; nested = Hashtbl.create 8 } in
  let add tbl key d = Hashtbl.replace tbl key (d +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key)) in
  List.iter
    (fun (s : Trace.span) ->
      if is_bench_span s.Trace.name then add t.own s.Trace.name s.Trace.dur_s
      else
        match bench_ancestor s with
        | Some b -> add t.nested (b, s.Trace.name) s.Trace.dur_s
        | None -> ())
    spans;
  t

let own t name = Option.value ~default:0.0 (Hashtbl.find_opt t.own name)
let nested t bench name = Option.value ~default:0.0 (Hashtbl.find_opt t.nested (bench, name))

(* The engine's rounding dispatch, seeded as the engine seeds attempt 0. *)
let round_as_engine (job : Engine.job) frac =
  let inst = job.Engine.instance in
  let g = Prng.create ~seed:job.Engine.seed in
  match job.Engine.algorithm with
  | Engine.Lp_round -> Rounding.solve ~trials:job.Engine.trials g inst frac
  | Engine.Adaptive | Engine.Oracle_round ->
      Rounding.solve_adaptive ~trials:job.Engine.trials g inst frac
  | Engine.Greedy_lp -> Greedy.from_lp inst frac
  | Engine.Derand_seq -> (
      match inst.Instance.conflict with
      | Instance.Unweighted _ -> Derand.algorithm1_derand inst frac
      | Instance.Edge_weighted _ -> Derand.algorithm23_derand inst frac
      | Instance.Per_channel _ | Instance.Per_channel_weighted _ ->
          invalid_arg "perfbench: derand needs an unweighted or edge-weighted instance")

type replay = {
  objectives : float array;
  lp : tally;  (** explicit LP and colgen calls *)
  rounding : tally;  (** rounding and greedy calls *)
  derand : tally;
  n_explicit : int;
  n_oracle : int;
  n_rounding : int;
  n_derand : int;
}

(* Each job's LP-tier path through the layers' public entry points, in the
   engine's order, with the warm-start basis table and column pool held
   here rather than in an engine. *)
let replay jobs =
  let bases = Hashtbl.create 64 in
  let pool = Oracle_solver.Column_pool.create () in
  let lp = tally () and rounding = tally () and derand = tally () in
  let n_explicit = ref 0 and n_oracle = ref 0 and n_rounding = ref 0 and n_derand = ref 0 in
  let objectives =
    Array.of_list
      (List.map
         (fun (job : Engine.job) ->
           span span_job ~attrs:[ ("job", string_of_int job.Engine.id) ] @@ fun () ->
           let inst = job.Engine.instance in
           let frac =
             match job.Engine.algorithm with
             | Engine.Oracle_round ->
                 incr n_oracle;
                 let fp =
                   span span_fingerprint (fun () ->
                       Serialize.conflict_fingerprint inst.Instance.conflict)
                 in
                 with_counter_delta lp (fun () ->
                     span span_oracle (fun () ->
                         fst
                           (Oracle_solver.solve ~engine:Sa_lp.Model.Revised_sparse
                              ~lp_pricing:Sa_lp.Model.Dantzig ~presolve:false
                              ~column_pool:(pool, fp) inst)))
             | Engine.Lp_round | Engine.Adaptive | Engine.Greedy_lp | Engine.Derand_seq ->
                 incr n_explicit;
                 let key = Option.get job.Engine.shape_key in
                 let frac, stats =
                   with_counter_delta lp (fun () ->
                       span span_lp (fun () ->
                           Lp.solve_explicit_stats ~engine:Sa_lp.Model.Revised_sparse
                             ?warm_start:(Hashtbl.find_opt bases key)
                             ~inject_warm_crash:false ~pricing:Sa_lp.Model.Dantzig
                             ~presolve:false inst))
                 in
                 Option.iter (Hashtbl.replace bases key) stats.Lp.basis;
                 frac
           in
           (if job.Engine.algorithm = Engine.Derand_seq then begin
              incr n_derand;
              with_counter_delta derand (fun () ->
                  span span_derand (fun () -> ignore (round_as_engine job frac)))
            end
            else begin
              incr n_rounding;
              with_counter_delta rounding (fun () ->
                  span span_rounding (fun () -> ignore (round_as_engine job frac)))
            end);
           frac.Lp.objective)
         jobs)
  in
  {
    objectives;
    lp;
    rounding;
    derand;
    n_explicit = !n_explicit;
    n_oracle = !n_oracle;
    n_rounding = !n_rounding;
    n_derand = !n_derand;
  }

let same_objective a b = Float.abs (a -. b) <= Sa_lp.Tol.cert_eps *. Float.max 1.0 (Float.abs a)

let trace_capacity = 1 lsl 18

(* One traced pass: the ledger values keyed by metric name, plus the spans
   for the Chrome trace. *)
let traced_pass checks ~expected specs =
  (* 1. set-up, batch by batch, inside benchmark spans *)
  Trace.set_enabled true;
  Trace.clear ();
  let engine = Engine.create () in
  let setup_tally = tally () in
  let jobs =
    with_counter_delta setup_tally (fun () ->
        renumber
          (List.concat_map
             (fun s -> span span_expand (fun () -> Workload.expand engine [ s ]))
             specs))
  in
  let setup_spans = Trace.recent () in
  (* 2. the engine, tracing off *)
  Trace.set_enabled false;
  let engine_tally = tally () in
  let gc0 = Gc.quick_stat () in
  let p = with_counter_delta engine_tally (fun () -> run_jobs engine jobs) in
  let gc1 = Gc.quick_stat () in
  (* 3. the engine again from empty caches, tracing on *)
  Trace.set_enabled true;
  let traced = run_jobs (Engine.create ()) jobs in
  (* 4. the layer replay *)
  Trace.clear ();
  let r = replay jobs in
  let replay_spans = Trace.recent () in
  Trace.set_enabled false;
  check_digest checks ~expected (digest p.results);
  check_digest checks ~expected (digest traced.results);
  check_pass checks
    ~extra:(fun job res ->
      let o = r.objectives.(job.Engine.id) in
      if same_objective res.Engine.lp_objective o then []
      else [ Printf.sprintf "replay objective %.9g, engine %.9g" o res.Engine.lp_objective ])
    jobs p;
  let spans = setup_spans @ replay_spans in
  if List.length spans >= trace_capacity then
    fail_job checks "trace ring wrapped: spans were lost";
  let t = span_totals spans in
  let n_jobs = float_of_int (List.length jobs) in
  let n_batches = float_of_int (List.length specs) in
  let per n x = ratio x (float_of_int n) in
  let revised_lp = nested t span_lp "lp.revised.solve" in
  let revised_oracle = nested t span_oracle "lp.revised.solve" in
  let rho = nested t span_expand "graph.rho" in
  let job_s = Array.fold_left ( +. ) 0.0 p.latencies in
  let lp_s = Array.fold_left (fun acc r -> acc +. r.Engine.timings.Engine.lp_s) 0.0 p.results in
  let round_s =
    Array.fold_left (fun acc r -> acc +. r.Engine.timings.Engine.round_s) 0.0 p.results
  in
  let layer_s =
    own t span_lp +. own t span_oracle +. own t span_fingerprint +. own t span_rounding
    +. own t span_derand
  in
  let values =
    [
      ("workload.construct_ms", "ms", ms ((own t span_expand -. rho) /. n_batches));
      ("inductive.rho_ms", "ms", ms (rho /. n_batches));
      ("setup.alloc_mb", "MB", mb setup_tally.alloc);
      ( "engine.topology_hit_rate", "ratio",
        ratio (count setup_tally "engine.topology.hits")
          (count setup_tally "engine.topology.hits" +. count setup_tally "engine.topology.misses") );
      ("lp_relaxation.build_ms", "ms", ms (per r.n_explicit (own t span_lp -. revised_lp)));
      ("revised.solve_ms", "ms", ms ((revised_lp +. revised_oracle) /. n_jobs));
      ("revised.pivots", "count", count r.lp "lp.revised.pivots" /. n_jobs);
      ("revised.refactorizations", "count", count r.lp "lp.revised.refactorizations" /. n_jobs);
      ( "revised.warm_install_rate", "ratio",
        ratio (count r.lp "lp.revised.warm_installs") (count r.lp "lp.revised.warm_attempts") );
      ( "engine.basis_hit_rate", "ratio",
        ratio (count engine_tally "engine.basis.hits") (count engine_tally "engine.basis.lookups") );
      ("lp.alloc_mb", "MB", mb r.lp.alloc /. n_jobs);
      ("oracle_solver.pricing_ms", "ms", ms (per r.n_oracle (own t span_oracle -. revised_oracle)));
      ("oracle_solver.master_ms", "ms", ms (per r.n_oracle revised_oracle));
      ("oracle_solver.rounds", "count", per r.n_oracle (count r.lp "core.colgen.rounds"));
      ("oracle_solver.oracle_calls", "count", per r.n_oracle (count r.lp "core.colgen.oracle_calls"));
      ("oracle_solver.columns", "count", per r.n_oracle (count r.lp "core.colgen.columns"));
      ( "oracle_solver.pool_hit_rate", "ratio",
        ratio (count r.lp "core.colgen.pool.hits")
          (count r.lp "core.colgen.pool.hits" +. count r.lp "core.colgen.pool.misses") );
      ("serialize.fingerprint_ms", "ms", ms (per r.n_oracle (own t span_fingerprint)));
      ("rounding.ms", "ms", ms (per r.n_rounding (own t span_rounding)));
      ("rounding.trials", "count", per r.n_rounding (count r.rounding "core.rounding.trials"));
      ("rounding.alloc_mb", "MB", per r.n_rounding (mb r.rounding.alloc));
      ("derand.ms", "ms", ms (per r.n_derand (own t span_derand)));
      ("derand.candidates", "count", per r.n_derand (count r.derand "core.derand.candidates"));
      ("engine.self_ms", "ms", ms ((job_s -. lp_s -. round_s) /. n_jobs));
      ( "gc.minor_collections", "count",
        float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections) /. n_jobs );
      ( "gc.major_collections", "count",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) /. n_jobs );
      ("trace.overhead_ratio", "ratio", p.wall /. traced.wall);
      ("trace.coverage", "ratio", layer_s /. job_s);
    ]
  in
  (values, spans, List.length jobs)

let traced ~specs ~seconds ~chrome_path checks =
  Trace.set_capacity trace_capacity;
  Trace.set_enabled false;
  let expected = ref None in
  warm_up checks ~expected specs;
  let deadline = Timing.now () +. seconds in
  let passes = ref [] and spans = ref [] and jobs_per_pass = ref 0 in
  while !passes = [] || Timing.now () < deadline do
    let values, sp, n = traced_pass checks ~expected specs in
    passes := values :: !passes;
    spans := sp;
    jobs_per_pass := n
  done;
  let chrome = Export.spans_to_chrome !spans in
  write_file chrome_path chrome;
  (match Export.validate_chrome chrome with
  | events when events = List.length !spans -> ()
  | events ->
      fail_job checks
        (Printf.sprintf "chrome trace holds %d events for %d spans" events (List.length !spans))
  | exception Export.Parse_error msg -> fail_job checks ("chrome trace invalid: " ^ msg));
  let n = List.length !passes in
  Printf.printf "perfbench: %d traced passes of %d jobs, results digest %s, chrome trace %s\n" n
    !jobs_per_pass
    (Option.value ~default:"-" !expected)
    chrome_path;
  (* the passes replay identical jobs: report each value's median *)
  List.map
    (fun (mname, unit_, _) ->
      let xs =
        List.map (fun vs -> List.find (fun (m, _, _) -> m = mname) vs |> fun (_, _, v) -> v) !passes
      in
      { mname; unit_; value = median xs; samples = n })
    (List.hd !passes)

(* ---------------------------- serve parity test --------------------------- *)

(* The benchmark must measure what [auction serve] runs: replay each
   workload's file through [auction serve --workload] and compare the job
   count, totals and per-job results with the benchmark's own engine run. *)
let serve_check ~auction ~seed ~out =
  let failures = ref 0 in
  List.iter
    (fun wl ->
      let specs = wl.specs seed in
      let base = Filename.concat out (Printf.sprintf "%s-seed%d" wl.name seed) in
      let wl_path = base ^ ".wl" and json_path = base ^ ".serve.json" in
      let results_path = base ^ ".serve-results.json" in
      write_file wl_path (Workload.to_string specs);
      Trace.set_enabled false;
      let engine, jobs = setup specs in
      let p = run_jobs engine jobs in
      let cmd =
        Filename.quote_command auction
          [ "serve"; "--workload"; wl_path; "--json"; json_path; "--results-out"; results_path ]
          ~stdout:(base ^ ".serve.log")
      in
      let status = Sys.command cmd in
      let read path = In_channel.with_open_bin path In_channel.input_all in
      let field name =
        match Export.parse_json (read json_path) with
        | Export.Obj fields -> (
            match List.assoc_opt name fields with
            | Some (Export.Num v) -> v
            | _ -> nan)
        | _ -> nan
      in
      let sum f = Array.fold_left (fun acc r -> acc +. f r) 0.0 p.results in
      let mismatches =
        if status <> 0 then [ Printf.sprintf "auction serve exited %d" status ]
        else
          List.filter_map Fun.id
            [
              (if int_of_float (field "jobs") = Array.length p.results then None
               else Some (Printf.sprintf "jobs %g vs %d" (field "jobs") (Array.length p.results)));
              (let ours = Printf.sprintf "%.6f" (sum (fun r -> r.Engine.welfare)) in
               let theirs = Printf.sprintf "%.6f" (field "total_welfare") in
               if ours = theirs then None else Some ("total_welfare " ^ theirs ^ " vs " ^ ours));
              (let ours = Printf.sprintf "%.6f" (sum (fun r -> r.Engine.lp_objective)) in
               let theirs = Printf.sprintf "%.6f" (field "total_lp_objective") in
               if ours = theirs then None else Some ("total_lp_objective " ^ theirs ^ " vs " ^ ours));
              (let theirs = String.trim (read results_path) in
               if theirs = Engine.results_to_json p.results then None
               else Some "per-job results differ");
            ]
      in
      if mismatches = [] then
        Printf.printf "serve-check %s seed %d: ok (%d jobs, digest %s)\n%!" wl.name seed
          (Array.length p.results) (digest p.results)
      else begin
        incr failures;
        Printf.printf "serve-check %s seed %d: FAILED: %s\n%!" wl.name seed
          (String.concat "; " mismatches)
      end)
    workloads;
  if !failures > 0 then exit 1

(* ---------------------------------- main ---------------------------------- *)

let usage =
  "perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]\n\
   perfbench serve-check --auction EXE [--seed N] [--out DIR]\n\
   workloads: repeat-warm, fresh-cold, colgen-pool"

let () =
  let serve_mode = ref false and auction = ref "" in
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out = ref "perfbench/out" in
  let spec_list =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer ledger instead of end-to-end metrics");
      ("--out", Arg.Set_string out, "DIR artefact directory (default perfbench/out)");
      ("--auction", Arg.Set_string auction, "EXE auction binary for serve-check");
    ]
  in
  Arg.parse spec_list
    (function
      | "serve-check" -> serve_mode := true
      | a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
  if !serve_mode then begin
    if !auction = "" then (prerr_endline usage; exit 2);
    serve_check ~auction:!auction ~seed:!seed ~out:!out
  end
  else
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | None ->
        prerr_endline usage;
        exit 2
    | Some wl ->
        let specs = wl.specs !seed in
        let base = Filename.concat !out (Printf.sprintf "%s-seed%d" wl.name !seed) in
        write_file (base ^ ".wl") (Workload.to_string specs);
        let checks = { attempted = 0; failed = 0; notes = [] } in
        Printf.printf "perfbench: workload %s, seed %d, %d batches, trace %d\n%!" wl.name !seed
          (List.length specs) !trace;
        let metrics =
          if !trace = 1 then
            traced ~specs ~seconds:!seconds ~chrome_path:(base ^ ".trace.json") checks
          else untraced ~specs ~seconds:!seconds checks
        in
        List.iter (fun n -> prerr_endline ("perfbench: check failed: " ^ n)) (List.rev checks.notes);
        let correct = checks.failed = 0 in
        print_result ~correct ~attempted:checks.attempted ~failed:checks.failed metrics;
        if not correct then exit 1
