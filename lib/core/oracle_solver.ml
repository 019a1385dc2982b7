module Bundle = Sa_val.Bundle
module Valuation = Sa_val.Valuation
module Ordering = Sa_graph.Ordering
module Model = Sa_lp.Model
module Simplex = Sa_lp.Simplex
module Tel = Sa_telemetry.Metrics

let m_solves = Tel.counter "core.colgen.solves"
let m_rounds = Tel.counter "core.colgen.rounds"
let m_oracle_calls = Tel.counter "core.colgen.oracle_calls"
let m_columns = Tel.counter "core.colgen.columns"
let m_price_recomputes = Tel.counter "core.colgen.price_recomputes"
let m_pool_hits = Tel.counter "core.colgen.pool.hits"
let m_pool_misses = Tel.counter "core.colgen.pool.misses"
let m_pool_seeded = Tel.counter "core.colgen.pool.seeded_columns"
let h_solve = Tel.histogram "core.colgen.solve.seconds"
let log_src = Logs.Src.create "sa.core.colgen" ~doc:"Column generation"
module Log = (val Logs.src_log log_src : Logs.LOG)

type stats = {
  iterations : int;
  columns_generated : int;
  lp_solves_time : float;
  seeded_columns : int;
}

type pricing = Naive | Incremental

(* ------------------------- cross-job column pool ------------------------- *)

(* Bounded LRU of generated (bidder, bundle) columns keyed by conflict
   fingerprint, shared across jobs the way the engine's basis cache shares
   warm bases: a mutex guards the table, atomics mirror the hit counters so
   they are readable from any domain without the lock.  Columns are kept in
   generation order — the order the donor solve discovered them — so a
   seeded master reproduces the donor's column sequence and, on a
   non-degenerate LP, its exact optimal vertex. *)
module Column_pool = struct
  type entry = { cols : (int * Bundle.t) list; mutable stamp : int }

  type t = {
    lock : Mutex.t;
    table : (string, entry) Hashtbl.t;
    mutable tick : int;
    max_keys : int;
    max_columns_per_key : int;
    hits : int Atomic.t;
    misses : int Atomic.t;
  }

  let create ?(max_keys = 64) ?(max_columns_per_key = 512) () =
    if max_keys < 1 then invalid_arg "Column_pool.create: max_keys must be >= 1";
    if max_columns_per_key < 1 then
      invalid_arg "Column_pool.create: max_columns_per_key must be >= 1";
    {
      lock = Mutex.create ();
      table = Hashtbl.create 64;
      tick = 0;
      max_keys;
      max_columns_per_key;
      hits = Atomic.make 0;
      misses = Atomic.make 0;
    }

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  let find t key =
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some e ->
            t.tick <- t.tick + 1;
            e.stamp <- t.tick;
            Atomic.incr t.hits;
            Tel.incr m_pool_hits;
            e.cols
        | None ->
            Atomic.incr t.misses;
            Tel.incr m_pool_misses;
            [])

  let evict_lru t =
    while Hashtbl.length t.table > t.max_keys do
      let victim =
        Hashtbl.fold
          (fun key e acc ->
            match acc with
            | Some (_, stamp) when stamp <= e.stamp -> acc
            | _ -> Some (key, e.stamp))
          t.table None
      in
      match victim with
      | Some (key, _) -> Hashtbl.remove t.table key
      | None -> ()
    done

  (* Merge [cols] (generation order) after the key's existing columns,
     deduplicating on (bidder, bundle) and truncating to the per-key bound
     — earliest-generated columns win, keeping the stored prefix stable
     across repeated stores of the same solve. *)
  let store t key cols =
    locked t (fun () ->
        t.tick <- t.tick + 1;
        let existing =
          match Hashtbl.find_opt t.table key with Some e -> e.cols | None -> []
        in
        let seen = Hashtbl.create 64 in
        let keep = ref [] in
        let count = ref 0 in
        List.iter
          (fun (v, b) ->
            let k = (v, Bundle.to_int b) in
            if !count < t.max_columns_per_key && not (Hashtbl.mem seen k) then begin
              Hashtbl.add seen k ();
              keep := (v, b) :: !keep;
              incr count
            end)
          (existing @ cols);
        Hashtbl.replace t.table key { cols = List.rev !keep; stamp = t.tick };
        evict_lru t)

  let entries t = locked t (fun () -> Hashtbl.length t.table)
  let hit_count t = Atomic.get t.hits
  let miss_count t = Atomic.get t.misses
end

(* Raw Section-3.1 price sums, before clamping and availability deterrents:
   p_raw(v,j) = Σ_{u ≻ v} w̄_j(u,v) · y(u,j), accumulated with u ascending
   over v's channel-j conflict neighbours.  The incremental path recomputes
   stale entries with this exact function, so its results are bitwise
   identical to a full naive recompute. *)
let raw_price inst ~y ~bidder ~channel =
  let pi = inst.Instance.ordering in
  let acc = ref 0.0 in
  Instance.iter_conflicts inst ~channel bidder (fun u w ->
      if Ordering.precedes pi bidder u then acc := !acc +. (w *. y u channel));
  !acc

(* Clamp numerical noise and price unavailable channels prohibitively.  The
   deterrent needs [Valuation.max_value] — a scan of the whole valuation —
   so it is only computed when this bidder actually has a blocked channel
   ([deterrent] is called lazily, letting callers cache per bidder). *)
let finish_prices inst ~bidder ~deterrent prices =
  let prices = Array.map (fun p -> Float.max 0.0 p) prices in
  let avail = inst.Instance.available.(bidder) in
  if Bundle.card avail = inst.Instance.k then prices
  else begin
    let d = deterrent () in
    Array.mapi (fun j p -> if Bundle.mem j avail then p else d) prices
  end

let default_deterrent inst ~bidder () =
  (2.0 *. Valuation.max_value inst.Instance.bidders.(bidder) ~k:inst.Instance.k)
  +. 1.0

let prices_for inst ~y ~bidder =
  let k = inst.Instance.k in
  let prices =
    Array.init k (fun channel -> raw_price inst ~y ~bidder ~channel)
  in
  finish_prices inst ~bidder ~deterrent:(default_deterrent inst ~bidder) prices

(* Incremental dual-price state: the n×k table of raw sums plus the duals
   it was computed from.  After a master re-solve, only the (v,j) entries
   whose contributing duals y(u,j) actually changed are recomputed. *)
type price_state = {
  raw : float array array; (* n×k raw sums *)
  y_prev : float array array; (* n×k duals the sums were computed from *)
  dirty : bool array array;
}

let price_state_create n k =
  {
    raw = Array.make_matrix n k 0.0;
    y_prev = Array.make_matrix n k 0.0;
    dirty = Array.make_matrix n k false;
  }

let price_state_update inst st ~y =
  let n = Instance.n inst in
  let k = inst.Instance.k in
  let pi = inst.Instance.ordering in
  (* mark (v,j) dirty for every v preceding a u whose y(u,j) changed *)
  for u = 0 to n - 1 do
    for j = 0 to k - 1 do
      let yu = y u j in
      if yu <> st.y_prev.(u).(j) then begin
        st.y_prev.(u).(j) <- yu;
        Instance.iter_conflicts inst ~channel:j u (fun v _ ->
            if Ordering.precedes pi v u then st.dirty.(v).(j) <- true)
      end
    done
  done;
  let yv u j = st.y_prev.(u).(j) in
  let recomputed = ref 0 in
  for v = 0 to n - 1 do
    for j = 0 to k - 1 do
      if st.dirty.(v).(j) then begin
        st.dirty.(v).(j) <- false;
        st.raw.(v).(j) <- raw_price inst ~y:yv ~bidder:v ~channel:j;
        incr recomputed
      end
    done
  done;
  Tel.add m_price_recomputes !recomputed

let solve ?(max_rounds = 200) ?(eps = Sa_lp.Tol.feas_eps)
    ?engine:_ ?(pricing = Incremental) ?lp_pricing
    ?presolve ?(domains = 1) ?deadline ?(on_stall = `Accept) ?column_pool inst =
  Sa_telemetry.Trace.with_span ~hist:h_solve "core.colgen.solve" @@ fun () ->
  Tel.incr m_solves;
  if domains < 1 then invalid_arg "Oracle_solver.solve: domains must be >= 1";
  let started = Sa_util.Timing.now () in
  let check_deadline () =
    match deadline with
    | Some d when Sa_util.Timing.now () > d ->
        Sa_util.Fail.raise_
          (Sa_util.Fail.Timeout
             { stage = "colgen"; elapsed_s = Sa_util.Timing.now () -. started })
    | _ -> ()
  in
  check_deadline ();
  let n = Instance.n inst in
  let k = inst.Instance.k in
  let pi = inst.Instance.ordering in
  let m = Model.create Simplex.Maximize in
  (* Fixed row structure. *)
  let unit_row = Array.init n (fun _ -> Model.add_row m [] Simplex.Le 1.0) in
  let intf_row = Array.make_matrix n k (-1) in
  for v = 0 to n - 1 do
    for j = 0 to k - 1 do
      intf_row.(v).(j) <- Model.add_row m [] Simplex.Le inst.Instance.rho
    done
  done;
  let present = Hashtbl.create 256 in
  let columns = ref [] in
  let add_column v bundle =
    let key = (v, Bundle.to_int bundle) in
    if not (Bundle.equal bundle (Instance.restrict_bundle inst ~bidder:v bundle)) then
      false
    else if Hashtbl.mem present key then false
    else begin
      Hashtbl.add present key ();
      let value = Valuation.value inst.Instance.bidders.(v) bundle in
      let var = Model.add_var m ~obj:value in
      Model.add_to_row m unit_row.(v) var 1.0;
      (* The column appears in the interference row of every later
         channel-j conflict neighbour, for every channel j it contains.
         Each such row receives exactly one entry per column, so the row
         lists do not depend on the order the rows are visited in. *)
      Bundle.iter
        (fun j ->
          Instance.iter_conflicts inst ~channel:j v (fun v' w ->
              if Ordering.precedes pi v v' then
                Model.add_to_row m intf_row.(v').(j) var w))
        bundle;
      columns := (v, bundle, var) :: !columns;
      Tel.incr m_columns;
      true
    end
  in
  (* Per-bidder deterrent cache (satisfies the laziness contract of
     [finish_prices] across rounds). *)
  let deterrent_cache = Array.make n nan in
  let deterrent v () =
    if Float.is_nan deterrent_cache.(v) then
      deterrent_cache.(v) <- default_deterrent inst ~bidder:v ();
    deterrent_cache.(v)
  in
  let price_st =
    match pricing with Naive -> None | Incremental -> Some (price_state_create n k)
  in
  (* Priced channel vectors for every bidder under duals [y]. *)
  let all_prices y =
    (match price_st with
    | None -> ()
    | Some st -> price_state_update inst st ~y);
    Array.init n (fun v ->
        let raw =
          match price_st with
          | Some st -> Array.copy st.raw.(v)
          | None -> Array.init k (fun channel -> raw_price inst ~y ~bidder:v ~channel)
        in
        finish_prices inst ~bidder:v ~deterrent:(deterrent v) raw)
  in
  (* Demand oracles fan across domains; answers merge in bidder order, so
     the generated column sequence is independent of [domains]. *)
  let all_demands prices =
    Tel.add m_oracle_calls n;
    Pool.map_array ~domains
      (fun v ->
        (* Classify anything escaping a demand oracle: the engine needs to
           know which bidder's oracle broke to report (and retry) the job. *)
        try Valuation.demand inst.Instance.bidders.(v) ~prices:prices.(v) with
        | Sa_util.Fail.Error _ as e -> raise e
        | e ->
            Sa_util.Fail.raise_
              (Sa_util.Fail.Oracle_error
                 { bidder = v; detail = Printexc.to_string e }))
      (Array.init n Fun.id)
  in
  (* Cross-job seeding: columns interned by an earlier solve over the same
     conflict fingerprint enter the restricted master up front, in their
     original generation order.  [add_column] re-verifies each one against
     THIS instance's bundle constraints ([Instance.restrict_bundle]) and
     prices it with THIS instance's valuations, so a stale or foreign
     column can narrow the seeding but never corrupt the LP. *)
  let seeded =
    match column_pool with
    | None -> 0
    | Some (cp, key) ->
        let pooled = Column_pool.find cp key in
        List.fold_left
          (fun acc (v, bundle) ->
            if
              v >= 0 && v < n
              && (not (Bundle.is_empty bundle))
              && add_column v bundle
            then acc + 1
            else acc)
          0 pooled
  in
  Tel.add m_pool_seeded seeded;
  (* Seed: every bidder's favourite bundle at zero prices (blocked channels
     still carry their deterrent price). *)
  let seed_demands = all_demands (all_prices (fun _ _ -> 0.0)) in
  Array.iteri
    (fun v (bundle, util) ->
      if util > 0.0 && not (Bundle.is_empty bundle) then ignore (add_column v bundle))
    seed_demands;
  let lp_time = ref 0.0 in
  (* Warm-start bookkeeping for the sparse engine: the previous optimal
     basis stays primal feasible when columns are appended, but slack
     indices shift by the number of new structural columns — remap before
     reuse. *)
  let warm_basis = ref None in
  let basis_nstruct = ref 0 in
  (* One arena for every master re-solve this job performs (and, since it
     is the domain's arena, shared with every other job this domain
     serves): round N's buffers are round N+1's, so a re-solve allocates
     only for the columns added since the previous round. *)
  let lp_workspace = Sa_lp.Workspace.get () in
  let solve_master () =
    let nstruct = Model.num_vars m in
    let shift = nstruct - !basis_nstruct in
    let warm_start =
      Option.map
        (Array.map (fun j -> if j < !basis_nstruct then j else j + shift))
        !warm_basis
    in
    let r, dt =
      Sa_util.Timing.time (fun () ->
          Model.solve_with_basis ?warm_start ?deadline
            ?pricing:lp_pricing ?presolve ~workspace:lp_workspace m)
    in
    lp_time := !lp_time +. dt;
    warm_basis := r.Model.basis;
    basis_nstruct := nstruct;
    (match r.Model.solution.Model.status with
    | Simplex.Optimal -> ()
    | (Simplex.Infeasible | Simplex.Unbounded | Simplex.Iteration_limit) as st ->
        let detail =
          match st with
          | Simplex.Infeasible -> "master LP reported infeasible"
          | Simplex.Unbounded -> "master LP reported unbounded"
          | _ -> "master LP hit its iteration limit"
        in
        Sa_util.Fail.raise_
          (Sa_util.Fail.Solver_numerical { stage = "colgen.master"; detail }));
    r.Model.solution
  in
  let rounds = ref 0 in
  let finished = ref false in
  let last_sol = ref (solve_master ()) in
  incr rounds;
  while (not !finished) && !rounds < max_rounds do
    check_deadline ();
    let sol = !last_sol in
    let y u j = sol.Model.dual intf_row.(u).(j) in
    let demands = all_demands (all_prices y) in
    let added = ref false in
    Array.iteri
      (fun v (bundle, util) ->
        if not (Bundle.is_empty bundle) then begin
          let z_v = sol.Model.dual unit_row.(v) in
          if util -. z_v > eps then if add_column v bundle then added := true
        end)
      demands;
    if !added then begin
      Log.debug (fun m ->
          m "colgen round %d: new columns, re-solving master (cols=%d)" !rounds
            (Hashtbl.length present));
      last_sol := solve_master ();
      incr rounds
    end
    else finished := true
  done;
  Tel.add m_rounds !rounds;
  (* Round budget exhausted while columns were still entering: the current
     master optimum is a valid (restricted) solution but not certified as
     the LP optimum.  [`Accept] keeps the historical behaviour of returning
     it; [`Fail] surfaces the stall to the engine's retry logic. *)
  (if (not !finished) && on_stall = `Fail then
     Sa_util.Fail.raise_ (Sa_util.Fail.Colgen_stall { rounds = !rounds }));
  (* Final refactorization: re-solve the converged master from a cold
     start.  The incremental x_b carried across warm-started rounds drifts
     by ulps with the pivot history, so without this the certified values
     would depend on the path (cold, warm-across-rounds, pool-seeded) that
     discovered the final column set.  One clean solve over the finished
     master makes the answer a pure function of that column set — which is
     what lets a pool-seeded exact repeat reproduce its donor bitwise. *)
  warm_basis := None;
  last_sol := solve_master ();
  let sol = !last_sol in
  let cols =
    List.rev !columns
    |> List.filter_map (fun (v, bundle, var) ->
           let x = sol.Model.value var in
           if x > 1e-10 then
             Some { Lp_relaxation.bidder = v; bundle; x }
           else None)
    |> Array.of_list
  in
  (* Intern everything this solve generated (seeded columns included — they
     passed [add_column], so they are live for this fingerprint). *)
  (match column_pool with
  | None -> ()
  | Some (cp, key) ->
      Column_pool.store cp key (List.rev_map (fun (v, b, _) -> (v, b)) !columns));
  Sa_telemetry.Trace.add_attr "rounds" (string_of_int !rounds);
  Sa_telemetry.Trace.add_attr "columns" (string_of_int (Hashtbl.length present));
  Sa_telemetry.Trace.add_attr "seeded" (string_of_int seeded);
  Sa_telemetry.Eventlog.emit "colgen_done"
    [
      ("rounds", Sa_telemetry.Eventlog.Int !rounds);
      ("columns", Sa_telemetry.Eventlog.Int (Hashtbl.length present));
      ("converged", Sa_telemetry.Eventlog.Bool !finished);
      ("objective", Sa_telemetry.Eventlog.Float sol.Model.objective);
    ];
  ( { Lp_relaxation.columns = cols; objective = sol.Model.objective },
    {
      iterations = !rounds;
      columns_generated = Hashtbl.length present;
      lp_solves_time = !lp_time;
      seeded_columns = seeded;
    } )
