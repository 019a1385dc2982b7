module Graph = Sa_graph.Graph
module Weighted = Sa_graph.Weighted
module Ordering = Sa_graph.Ordering
module Valuation = Sa_val.Valuation

type conflict =
  | Unweighted of Graph.t
  | Edge_weighted of Weighted.t
  | Per_channel of Graph.t array
  | Per_channel_weighted of Weighted.t array

type t = {
  conflict : conflict;
  k : int;
  bidders : Valuation.t array;
  ordering : Ordering.t;
  rho : float;
  available : Sa_val.Bundle.t array;
}

let conflict_size = function
  | Unweighted g -> Graph.n g
  | Edge_weighted wg -> Weighted.n wg
  | Per_channel gs ->
      if Array.length gs = 0 then invalid_arg "Instance: Per_channel needs >= 1 graph";
      let n0 = Graph.n gs.(0) in
      Array.iter
        (fun g -> if Graph.n g <> n0 then invalid_arg "Instance: Per_channel size mismatch")
        gs;
      n0
  | Per_channel_weighted wgs ->
      if Array.length wgs = 0 then
        invalid_arg "Instance: Per_channel_weighted needs >= 1 graph";
      let n0 = Weighted.n wgs.(0) in
      Array.iter
        (fun wg ->
          if Weighted.n wg <> n0 then
            invalid_arg "Instance: Per_channel_weighted size mismatch")
        wgs;
      n0

let make ~conflict ~k ~bidders ~ordering ~rho =
  let n = conflict_size conflict in
  if Array.length bidders <> n then invalid_arg "Instance.make: bidders size mismatch";
  if Ordering.n ordering <> n then invalid_arg "Instance.make: ordering size mismatch";
  if k < 1 || k > Sa_val.Bundle.max_channels then invalid_arg "Instance.make: bad k";
  let available = Array.make n (Sa_val.Bundle.full k) in
  (match conflict with
  | Per_channel gs ->
      if Array.length gs <> k then
        invalid_arg "Instance.make: Per_channel needs exactly k graphs"
  | Per_channel_weighted wgs ->
      if Array.length wgs <> k then
        invalid_arg "Instance.make: Per_channel_weighted needs exactly k graphs"
  | Unweighted _ | Edge_weighted _ -> ());
  if rho < 1.0 then invalid_arg "Instance.make: rho must be >= 1";
  Array.iter (fun b -> Valuation.validate b ~k) bidders;
  (* Build every CSR now: LP builders walk neighbours from jobs that may
     run on several domains at once, and must never race to publish the
     lazily built form. *)
  (match conflict with
  | Unweighted g -> Graph.freeze g
  | Per_channel gs -> Array.iter Graph.freeze gs
  | Edge_weighted _ | Per_channel_weighted _ -> ());
  { conflict; k; bidders; ordering; rho; available }

let with_available t masks =
  if Array.length masks <> Array.length t.bidders then
    invalid_arg "Instance.with_available: size mismatch";
  Array.iter
    (fun m ->
      if not (Sa_val.Bundle.subset m (Sa_val.Bundle.full t.k)) then
        invalid_arg "Instance.with_available: mask uses channel >= k")
    masks;
  { t with available = Array.copy masks }

let channel_available t ~bidder ~channel =
  if channel < 0 || channel >= t.k then
    invalid_arg "Instance.channel_available: channel out of range";
  Sa_val.Bundle.mem channel t.available.(bidder)

let restrict_bundle t ~bidder bundle = Sa_val.Bundle.inter bundle t.available.(bidder)

let n t = Array.length t.bidders

let wbar t ~channel u v =
  if channel < 0 || channel >= t.k then invalid_arg "Instance.wbar: channel out of range";
  if u = v then 0.0
  else
    match t.conflict with
    | Unweighted g -> if Graph.mem_edge g u v then 1.0 else 0.0
    | Edge_weighted wg -> Weighted.wbar wg u v
    | Per_channel gs -> if Graph.mem_edge gs.(channel) u v then 1.0 else 0.0
    | Per_channel_weighted wgs -> Weighted.wbar wgs.(channel) u v

let iter_conflicts t ~channel v f =
  if channel < 0 || channel >= t.k then
    invalid_arg "Instance.iter_conflicts: channel out of range";
  let weighted wg = Weighted.iter_wbar wg v (fun u w -> if w > 0.0 then f u w) in
  match t.conflict with
  | Unweighted g -> Graph.iter_neighbors g v (fun u -> f u 1.0)
  | Edge_weighted wg -> weighted wg
  | Per_channel gs -> Graph.iter_neighbors gs.(channel) v (fun u -> f u 1.0)
  | Per_channel_weighted wgs -> weighted wgs.(channel)

let is_asymmetric t =
  match t.conflict with
  | Per_channel _ | Per_channel_weighted _ -> true
  | Unweighted _ | Edge_weighted _ -> false

let independent_on_channel t ~channel set =
  if channel < 0 || channel >= t.k then
    invalid_arg "Instance.independent_on_channel: channel out of range";
  match t.conflict with
  | Unweighted g -> Graph.is_independent g set
  | Edge_weighted wg -> Weighted.is_independent wg set
  | Per_channel gs -> Graph.is_independent gs.(channel) set
  | Per_channel_weighted wgs -> Weighted.is_independent wgs.(channel) set

let max_welfare_upper_bound t =
  Array.fold_left
    (fun acc b -> acc +. Valuation.max_value b ~k:t.k)
    0.0 t.bidders
