(* Domain-safe metrics registry.

   Counters and histograms are backed by [Atomic] so concurrent updates
   from domains sharded by [Sa_core.Pool.map_array] are exact: no
   update is lost and counter totals are independent of the domain count
   and interleaving.  Gauges use a CAS loop for read-modify-write.

   Registration (name -> metric) is mutex-protected and idempotent:
   requesting an existing name returns the existing metric, so modules can
   declare their handles at toplevel without coordination.  Updates never
   take the registry lock. *)

type counter = { c_name : string; c_value : int Atomic.t }
type gauge = { g_name : string; g_value : float Atomic.t }

type histogram = {
  h_name : string;
  bounds : float array; (* upper bucket bounds, strictly increasing *)
  buckets : int Atomic.t array; (* length = Array.length bounds + 1 (+inf) *)
  h_sum : float Atomic.t;
  h_count : int Atomic.t;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = { lock : Mutex.t; table : (string, metric) Hashtbl.t }

let create () = { lock = Mutex.create (); table = Hashtbl.create 64 }
let default = create ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let valid_name name =
  name <> ""
  && String.for_all
       (fun ch ->
         (ch >= 'a' && ch <= 'z')
         || (ch >= '0' && ch <= '9')
         || ch = '.' || ch = '_')
       name

let intern registry name make view =
  if not (valid_name name) then
    invalid_arg ("Metrics: bad metric name (want [a-z0-9._]+): " ^ name);
  locked registry (fun () ->
      match Hashtbl.find_opt registry.table name with
      | Some m -> view m
      | None ->
          let m = make () in
          Hashtbl.add registry.table name m;
          view m)

let kind_error name =
  invalid_arg
    (Printf.sprintf "Metrics: %s is already registered with a different kind" name)

(* ------------------------------- counters ------------------------------- *)

let counter ?(registry = default) name =
  intern registry name
    (fun () -> Counter { c_name = name; c_value = Atomic.make 0 })
    (function Counter c -> c | Gauge _ | Histogram _ -> kind_error name)

let incr c = ignore (Atomic.fetch_and_add c.c_value 1)

let add c n =
  if n < 0 then invalid_arg "Metrics.add: counters are monotonic (n >= 0)";
  ignore (Atomic.fetch_and_add c.c_value n)

let counter_name c = c.c_name
let counter_value c = Atomic.get c.c_value

(* -------------------------------- gauges -------------------------------- *)

let gauge ?(registry = default) name =
  intern registry name
    (fun () -> Gauge { g_name = name; g_value = Atomic.make 0.0 })
    (function Gauge g -> g | Counter _ | Histogram _ -> kind_error name)

let set_gauge g v = Atomic.set g.g_value v

let rec add_gauge g d =
  let cur = Atomic.get g.g_value in
  (* CAS compares the box we just read, so a lost race simply retries *)
  if not (Atomic.compare_and_set g.g_value cur (cur +. d)) then add_gauge g d

let gauge_name g = g.g_name
let gauge_value g = Atomic.get g.g_value

(* ------------------------------ histograms ------------------------------ *)

let default_time_buckets = [| 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0 |]

let histogram ?(registry = default) ?buckets name =
  let bounds = match buckets with None -> default_time_buckets | Some b -> b in
  if Array.length bounds = 0 then invalid_arg "Metrics.histogram: empty buckets";
  for i = 1 to Array.length bounds - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Metrics.histogram: bucket bounds must be strictly increasing"
  done;
  intern registry name
    (fun () ->
      Histogram
        {
          h_name = name;
          bounds = Array.copy bounds;
          buckets = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
          h_sum = Atomic.make 0.0;
          h_count = Atomic.make 0;
        })
    (function
      | Histogram h ->
          (match buckets with
          | Some b when b <> h.bounds -> kind_error name
          | Some _ | None -> ());
          h
      | Counter _ | Gauge _ -> kind_error name)

let rec atomic_float_add a d =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. d)) then atomic_float_add a d

let observe h v =
  let nb = Array.length h.bounds in
  let i = ref 0 in
  while !i < nb && v > h.bounds.(!i) do
    Stdlib.incr i
  done;
  ignore (Atomic.fetch_and_add h.buckets.(!i) 1);
  atomic_float_add h.h_sum v;
  ignore (Atomic.fetch_and_add h.h_count 1)

let histogram_name h = h.h_name
let histogram_count h = Atomic.get h.h_count
let histogram_sum h = Atomic.get h.h_sum

(* -------------------------------- views --------------------------------- *)

type hist_view = { le : float array; counts : int array; sum : float; count : int }

type view = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_view) list;
}

let snapshot ?(registry = default) () =
  let cs = ref [] and gs = ref [] and hs = ref [] in
  locked registry (fun () ->
      Hashtbl.iter
        (fun name -> function
          | Counter c -> cs := (name, Atomic.get c.c_value) :: !cs
          | Gauge g -> gs := (name, Atomic.get g.g_value) :: !gs
          | Histogram h ->
              hs :=
                ( name,
                  {
                    le = Array.copy h.bounds;
                    counts = Array.map Atomic.get h.buckets;
                    sum = Atomic.get h.h_sum;
                    count = Atomic.get h.h_count;
                  } )
                :: !hs)
        registry.table);
  let sort l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  { counters = sort !cs; gauges = sort !gs; histograms = sort !hs }

let find_counter view name = List.assoc_opt name view.counters
let find_gauge view name = List.assoc_opt name view.gauges
let find_histogram view name = List.assoc_opt name view.histograms

let reset ?(registry = default) () =
  locked registry (fun () ->
      Hashtbl.iter
        (fun _ -> function
          | Counter c -> Atomic.set c.c_value 0
          | Gauge g -> Atomic.set g.g_value 0.0
          | Histogram h ->
              Array.iter (fun b -> Atomic.set b 0) h.buckets;
              Atomic.set h.h_sum 0.0;
              Atomic.set h.h_count 0)
        registry.table)

(* --------------------------- well-known names --------------------------- *)

(* Pre-registered so every snapshot carries the full schema (a counter an
   execution never touched still appears, as 0) regardless of which
   instrumented modules the linker kept.  The naming scheme is
   <library>.<component>.<quantity>; see DESIGN.md "Observability". *)

(* Each well-known name pairs with a one-line description; the Prometheus
   exporter renders these as # HELP lines.  Keep descriptions on one line
   (Prometheus HELP is newline-terminated). *)

let counter_descriptions =
  [
    ("lp.revised.solves", "Revised (eta-file) simplex solves completed");
    ("lp.revised.pivots", "Revised simplex pivot steps");
    ("lp.revised.warm_attempts", "Warm-start basis installations attempted");
    ("lp.revised.warm_installs", "Warm-start basis installations that succeeded");
    ( "lp.revised.warm_rollbacks",
      "Warm-start installations rolled back to a cold start" );
    ("lp.presolve.rows_removed", "Rows removed by LP presolve reductions");
    ("lp.presolve.cols_removed", "Columns fixed at zero by LP presolve");
    ( "lp.presolve.duplicates",
      "Duplicate rows found by the presolve hashing pass" );
    ( "lp.presolve.scaling_passes",
      "Presolve equilibration sweeps that changed a scaling factor" );
    ("core.colgen.solves", "Column-generation master problems solved");
    ("core.colgen.rounds", "Column-generation pricing rounds");
    ("core.colgen.oracle_calls", "Demand-oracle invocations during pricing");
    ("core.colgen.columns", "Columns added to the restricted master");
    ( "core.colgen.price_recomputes",
      "Incremental-pricing dirty recomputations of a bidder price" );
    ("core.colgen.pool.hits", "Cross-job column pool lookups that found columns");
    ("core.colgen.pool.misses", "Cross-job column pool lookups that found nothing");
    ( "core.colgen.pool.seeded_columns",
      "Pooled columns accepted into a restricted master after re-verification" );
    ("core.rounding.trials", "Randomized rounding trials evaluated");
    ("core.rounding.improvements", "Rounding trials that improved the incumbent");
    ("core.derand.candidates", "Pairwise-independent seeds scored by the derandomization");
    ("graph.rho.estimates", "Inductive-independence rho estimations");
    ("geom.grid.cells_scanned", "Spatial-grid cells visited by queries");
    ("geom.grid.candidates", "Spatial-grid candidate points produced");
    ( "wireless.construction.edges_kept",
      "Conflict edges kept by exact predicates after grid filtering" );
    ( "wireless.construction.edges_dropped",
      "Grid candidate edges rejected by exact predicates" );
    ("engine.jobs", "Jobs completed by the batch engine");
    ("engine.warm_used", "Jobs solved using a cached warm-start basis");
    ("engine.topology.hits", "Topology cache hits");
    ("engine.topology.misses", "Topology cache misses");
    ("engine.basis.lookups", "Warm-start basis cache lookups");
    ("engine.basis.hits", "Warm-start basis cache hits");
    ("engine.job.retries", "Job attempts re-run after an absorbed failure");
    ("engine.job.failed", "Jobs that exhausted every tier and failed");
    ("engine.fallback.greedy", "Jobs degraded to the greedy fallback tier");
    ("engine.fallback.online", "Jobs degraded to the online first-fit tier");
    ("engine.deadline_exceeded", "Job attempts aborted by the per-job deadline");
    ("engine.faults.injected", "Faults injected by the deterministic harness");
    (* Scheduler occupancy of the persistent domain pool.  Batch/item
       totals depend on how many call sites went parallel (a --domains 1
       run bypasses the pool) and chunk/steal counts on timing, so these
       are excluded from cross-domain-count determinism comparisons. *)
    ("engine.pool.batches", "Batches submitted to the persistent domain pool");
    ("engine.pool.items", "Items scheduled through the domain pool");
    ("engine.pool.chunks", "Chunks claimed from pool batch cursors");
    ("engine.pool.steals", "Chunk halves stolen from busy pool participants");
    ("engine.pool.workers_spawned", "Worker domains spawned by the pool");
    ("telemetry.events.logged", "Decision events appended to the event log");
    ( "telemetry.events.dropped",
      "Decision events dropped for lack of an ambient job scope" );
    ("telemetry.http.requests", "HTTP requests served by the telemetry endpoint");
    ( "telemetry.http.read_errors",
      "Unexpected socket errors while reading an HTTP request head" );
  ]

let gauge_descriptions =
  [
    ("engine.topology.entries", "Topology cache population");
    ("engine.basis.entries", "Warm-start basis cache population");
    ("engine.pool.workers", "Worker domains currently parked in the pool");
  ]

let histogram_descriptions =
  [
    ("lp.revised.solve.seconds", "Wall time of revised simplex solves");
    ("core.colgen.solve.seconds", "Wall time of column-generation solves");
    ("core.derand.solve.seconds", "Wall time of seed-family derandomization solves");
    ("graph.rho.seconds", "Wall time of rho estimations");
    ("engine.job.lp.seconds", "Wall time of the LP phase per job");
    ("engine.job.round.seconds", "Wall time of the rounding phase per job");
    ("engine.job.seconds", "End-to-end wall time per engine job");
    ( "engine.attempt.seconds",
      "Wall time per job attempt across the retry/fallback chain" );
  ]

let well_known_counters = List.map fst counter_descriptions
let well_known_gauges = List.map fst gauge_descriptions
let well_known_histograms = List.map fst histogram_descriptions

let help name =
  match List.assoc_opt name counter_descriptions with
  | Some _ as d -> d
  | None -> (
      match List.assoc_opt name gauge_descriptions with
      | Some _ as d -> d
      | None -> List.assoc_opt name histogram_descriptions)

let () =
  List.iter (fun n -> ignore (counter n)) well_known_counters;
  List.iter (fun n -> ignore (gauge n)) well_known_gauges;
  List.iter (fun n -> ignore (histogram n)) well_known_histograms
