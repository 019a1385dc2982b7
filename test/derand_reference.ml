(* Reference derandomization, kept as the oracle for [Sa_core.Derand]'s
   table-driven scan: it enumerates the whole affine seed family and runs a
   full [Rounding.round_with_uniforms] pass for every seed, keeping the
   first allocation of strictly greatest value.  It shares no tables with
   the library's plan, which is the point.  Cost: p² rounding passes. *)

module Instance = Sa_core.Instance
module Allocation = Sa_core.Allocation
module Rounding = Sa_core.Rounding

let prime = 101

let enumerate inst round_pass =
  let n = Instance.n inst in
  let uniforms = Array.make n 0.0 in
  let best = ref (Allocation.empty n) in
  for a = 0 to prime - 1 do
    for b = 0 to prime - 1 do
      for v = 0 to n - 1 do
        uniforms.(v) <- float_of_int (((a * v) + b) mod prime) /. float_of_int prime
      done;
      let alloc = round_pass uniforms in
      (* the incumbent wins ties *)
      if not (Allocation.value inst !best >= Allocation.value inst alloc) then best := alloc
    done
  done;
  !best

let scale_down inst factor =
  factor *. sqrt (float_of_int inst.Instance.k) *. inst.Instance.rho

let algorithm1 inst frac =
  let scale_down = scale_down inst 2.0 in
  enumerate inst (fun uniforms -> Rounding.round_with_uniforms inst frac ~scale_down ~uniforms)

let algorithm23 inst frac =
  let scale_down = scale_down inst 4.0 in
  enumerate inst (fun uniforms ->
      Rounding.algorithm3 inst (Rounding.round_with_uniforms inst frac ~scale_down ~uniforms))
