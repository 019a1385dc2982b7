module Prng = Sa_util.Prng

let better inst a b = if Allocation.value inst a >= Allocation.value inst b then a else b

let reduce_best inst results =
  Array.fold_left (better inst) (Allocation.empty (Instance.n inst)) results

let solve_rounding ?(domains = Pool.default_domains) ?(trials_per_domain = 4) ~seed inst
    frac =
  if domains < 1 then invalid_arg "Parallel.solve_rounding: domains must be >= 1";
  if trials_per_domain < 1 then
    invalid_arg "Parallel.solve_rounding: trials_per_domain must be >= 1";
  let worker d =
    (* each shard gets an independent deterministic stream (kept per shard
       index, not per executing domain, so results don't depend on where
       the pool runs the shard) *)
    let g = Prng.create ~seed:(seed + (1_000_003 * (d + 1))) in
    Rounding.solve_adaptive ~trials:trials_per_domain g inst frac
  in
  if domains = 1 then worker 0
  else reduce_best inst (Pool.map_array ~domains worker (Array.init domains Fun.id))

let derand1 ?(domains = Pool.default_domains) inst frac =
  (match inst.Instance.conflict with
  | Instance.Unweighted _ -> ()
  | Instance.Edge_weighted _ | Instance.Per_channel _ | Instance.Per_channel_weighted _
    ->
      invalid_arg "Parallel.derand1: unweighted instances only");
  if domains < 1 then invalid_arg "Parallel.derand1: domains must be >= 1";
  let p = Derand.prime in
  let plan = Derand.plan inst frac in
  let chunk = (p + domains - 1) / domains in
  let ranges = Array.init domains (fun d -> (min p (d * chunk), min p ((d + 1) * chunk))) in
  let results =
    Pool.map_array ~domains (fun (a_lo, a_hi) -> Derand.scan plan ~a_lo ~a_hi) ranges
  in
  (* the earliest range wins ties, as the sequential scan's incumbent does *)
  let best, _ =
    Array.fold_left
      (fun ((_, best_value) as best) ((_, value) as r) ->
        if best_value >= value then best else r)
      results.(0) results
  in
  best
