module Bundle = Sa_val.Bundle
module Valuation = Sa_val.Valuation
module Graph = Sa_graph.Graph
module Weighted = Sa_graph.Weighted
module Ordering = Sa_graph.Ordering
module Tel = Sa_telemetry.Metrics
module Trace = Sa_telemetry.Trace
module Ws = Sa_lp.Workspace

let prime = 101

let m_candidates = Tel.counter "core.derand.candidates"
let h_solve = Tel.histogram "core.derand.solve.seconds"

(* h_{a,b}(v) = ((a*v + b) mod p) / p — a pairwise-independent [0,1) family.
   Everything a rounding pass derives from bidder v is a function of its
   residue r = (a*v + b) mod p alone: the bundle its inverse CDF picks on
   either side of the √k split, and that bundle's value.  A plan tabulates
   those once per job, so scoring one of the p² seeds is a walk over
   residues, table reads and a conflict check against earlier neighbours,
   with no allocation; an allocation is only materialised when a seed
   strictly beats the incumbent.  Every float is computed by the same
   expression, in the same order, as [Rounding.round_with_uniforms]
   followed by [Allocation.value], so the chosen allocation is bit for bit
   the one that rounding every seed would pick. *)

(* The plan's tables live in the domain's scratch arena (int and float
   slots 32-35 are reserved for this module; see [Sa_lp.Workspace]).  They
   are dead once the job's scan returns, and reusing their storage keeps
   each job from handing the major GC a fresh n·p-sized batch of arrays,
   whose collection would otherwise land on whatever layer runs next. *)
let slot_small = 32
let slot_large = 33
let slot_vertices = 34  (* CSR offsets, empty-bundle values *)
let slot_edges = 35  (* CSR neighbours and weights *)

(* One side of the √k bundle-size split: bidder v, drawing uniform r/p,
   tentatively gets the bundle [pick.(v * prime + r)] (as its bitmask),
   worth [value.(v * prime + r)]. *)
type side = { pick : int array; value : float array }

type plan = {
  inst : Instance.t;
  weighted : bool;
      (* Algorithm 2+3: Condition-(5) resolution, then Algorithm 3 *)
  small : side;
  large : side;
  empty_value : float array;  (* each bidder's value for the empty bundle *)
  (* v's conflict neighbours u with π(u) < π(v), ascending u:
     [nbr.(off.(v)) .. nbr.(off.(v + 1) - 1)], w̄(u, v) alongside in [w] *)
  off : int array;
  nbr : int array;
  w : float array;
}

(* The inverse CDF of [Rounding.round_with_uniforms], tabulated for every
   residue; each column's value is computed once. *)
let compile_side ws ~slot inst ~scale_down cols =
  let n = Instance.n inst in
  let pick = Ws.ints ws ~slot (n * prime) in
  let value = Ws.floats ws ~slot (n * prime) in
  Array.iteri
    (fun v cols ->
      let bidder = inst.Instance.bidders.(v) in
      let cols = List.map (fun (bundle, x) -> (bundle, x, Valuation.value bidder bundle)) cols in
      let empty = Valuation.value bidder Bundle.empty in
      for r = 0 to prime - 1 do
        let u = float_of_int r /. float_of_int prime in
        let rec walk acc = function
          | [] -> (Bundle.empty, empty)
          | (bundle, x, bv) :: rest ->
              let acc' = acc +. (x /. scale_down) in
              if u < acc' then (bundle, bv) else walk acc' rest
        in
        let bundle, bv = walk 0.0 cols in
        pick.((v * prime) + r) <- Bundle.to_int bundle;
        value.((v * prime) + r) <- bv
      done)
    cols;
  { pick; value }

(* Earlier-ordered conflict neighbours as CSR.  A sparse weighted graph
   lists its non-zero w̄ through [Instance.iter_conflicts]; a dense matrix is
   scanned pair by pair, keeping every w̄ that is not zero — NaN included,
   which the resolution's backward sum must see exactly as it sees every
   other term. *)
let earlier_conflicts ws inst =
  let n = Instance.n inst and pi = inst.Instance.ordering in
  let rows =
    Array.init n (fun v ->
        let acc = ref [] in
        let add u w = if Ordering.precedes pi u v then acc := (u, w) :: !acc in
        (match inst.Instance.conflict with
        | Instance.Unweighted g -> Graph.iter_neighbors g v (fun u -> add u 1.0)
        | Instance.Edge_weighted wg when Weighted.is_sparse wg ->
            Instance.iter_conflicts inst ~channel:0 v add
        | Instance.Edge_weighted wg ->
            for u = 0 to n - 1 do
              if u <> v then begin
                let w = Weighted.wbar wg u v in
                if not (w = 0.0) then add u w
              end
            done
        | Instance.Per_channel _ | Instance.Per_channel_weighted _ -> assert false);
        Array.of_list (List.rev !acc))
  in
  let off = Ws.ints ws ~slot:slot_vertices (n + 1) in
  off.(0) <- 0;
  Array.iteri (fun v row -> off.(v + 1) <- off.(v) + Array.length row) rows;
  let nbr = Ws.ints ws ~slot:slot_edges off.(n) in
  let w = Ws.floats ws ~slot:slot_edges off.(n) in
  Array.iteri
    (fun v row ->
      Array.iteri
        (fun i (u, x) ->
          nbr.(off.(v) + i) <- u;
          w.(off.(v) + i) <- x)
        row)
    rows;
  (off, nbr, w)

let plan inst frac =
  let weighted, factor =
    match inst.Instance.conflict with
    | Instance.Unweighted _ -> (false, 2.0)
    | Instance.Edge_weighted _ -> (true, 4.0)
    | Instance.Per_channel _ | Instance.Per_channel_weighted _ ->
        invalid_arg "Derand.plan: unweighted or edge-weighted instances only"
  in
  let n = Instance.n inst in
  let k = float_of_int inst.Instance.k in
  let scale_down = factor *. sqrt k *. inst.Instance.rho in
  let threshold = sqrt k in
  let split =
    Array.map
      (List.partition (fun (b, _) -> float_of_int (Bundle.card b) <= threshold))
      (Lp_relaxation.by_bidder frac ~n)
  in
  let ws = Ws.get () in
  let off, nbr, w = earlier_conflicts ws inst in
  let empty_value = Ws.floats ws ~slot:slot_vertices n in
  Array.iteri (fun v b -> empty_value.(v) <- Valuation.value b Bundle.empty) inst.Instance.bidders;
  {
    inst;
    weighted;
    small = compile_side ws ~slot:slot_small inst ~scale_down (Array.map fst split);
    large = compile_side ws ~slot:slot_large inst ~scale_down (Array.map snd split);
    empty_value;
    off;
    nbr;
    w;
  }

(* Does v keep its tentative bundle?  Unweighted: no earlier neighbour's
   bundle meets it.  Weighted: the backward shared mass, summed in
   ascending u, stays below 1/2. *)
let keeps p t v =
  let tv = t.(v) in
  if Bundle.is_empty tv then true
  else if p.weighted then begin
    let mass = ref 0.0 in
    for i = p.off.(v) to p.off.(v + 1) - 1 do
      if Bundle.intersects t.(p.nbr.(i)) tv then mass := !mass +. p.w.(i)
    done;
    not (!mass >= 0.5)
  end
  else begin
    let i = ref p.off.(v) and stop = p.off.(v + 1) in
    while !i < stop && not (Bundle.intersects t.(p.nbr.(!i)) tv) do
      incr i
    done;
    !i = stop
  end

(* Welfare of one side's resolved candidate, summed in v order like
   [Allocation.value]. *)
let side_value p side t idx =
  let total = ref 0.0 in
  for v = 0 to Array.length t - 1 do
    let x = if keeps p t v then side.value.(idx.(v)) else p.empty_value.(v) in
    total := !total +. x
  done;
  !total

let resolved p t = Array.init (Array.length t) (fun v -> if keeps p t v then t.(v) else Bundle.empty)

let scan p ~a_lo ~a_hi =
  if a_lo < 0 || a_hi > prime || a_lo > a_hi then invalid_arg "Derand.scan: bad seed range";
  let inst = p.inst in
  let n = Instance.n inst in
  let idx = Array.make n 0 in  (* v * prime + v's residue *)
  let small = Array.make n Bundle.empty and large = Array.make n Bundle.empty in
  let best = ref (Allocation.empty n) in
  let best_value = ref (Allocation.value inst !best) in
  for a = a_lo to a_hi - 1 do
    for b = 0 to prime - 1 do
      let r = ref b in
      for v = 0 to n - 1 do
        let i = (v * prime) + !r in
        idx.(v) <- i;
        small.(v) <- Bundle.of_int p.small.pick.(i);
        large.(v) <- Bundle.of_int p.large.pick.(i);
        r := if !r + a >= prime then !r + a - prime else !r + a
      done;
      let vs = side_value p p.small small idx and vl = side_value p p.large large idx in
      (* the small side wins ties, and the incumbent wins ties against it *)
      let t = if vs >= vl then small else large in
      if p.weighted then begin
        let cand = Rounding.algorithm3 inst (resolved p t) in
        let cv = Allocation.value inst cand in
        if not (!best_value >= cv) then begin
          best := cand;
          best_value := cv
        end
      end
      else begin
        let cv = if vs >= vl then vs else vl in
        if not (!best_value >= cv) then begin
          best := resolved p t;
          best_value := cv
        end
      end
    done
  done;
  Tel.add m_candidates (prime * (a_hi - a_lo));
  (!best, !best_value)

(* One whole-family scan in a [core.derand.solve] span carrying the seeds
   scored, the path, and the bytes allocated. *)
let solve ~kind inst frac =
  Trace.with_span ~hist:h_solve "core.derand.solve" (fun () ->
      let alloc0 = Gc.allocated_bytes () in
      let best, _ = scan (plan inst frac) ~a_lo:0 ~a_hi:prime in
      Trace.add_attr "candidates" (string_of_int (prime * prime));
      Trace.add_attr "kind" kind;
      Trace.add_attr "alloc_bytes" (Printf.sprintf "%.0f" (Gc.allocated_bytes () -. alloc0));
      best)

let algorithm1_derand inst frac =
  (match inst.Instance.conflict with
  | Instance.Unweighted _ -> ()
  | Instance.Edge_weighted _ | Instance.Per_channel _ | Instance.Per_channel_weighted _ ->
      invalid_arg "Derand.algorithm1_derand: unweighted instances only");
  solve ~kind:"unweighted" inst frac

let algorithm23_derand inst frac =
  (match inst.Instance.conflict with
  | Instance.Edge_weighted _ -> ()
  | Instance.Unweighted _ | Instance.Per_channel _ | Instance.Per_channel_weighted _ ->
      invalid_arg "Derand.algorithm23_derand: edge-weighted instances only");
  solve ~kind:"edge-weighted" inst frac
