(* Shared numerical tolerances for the LP layer.

   One definition for each tolerance instead of per-module copies, so the
   revised (eta-file) engine, presolve, certification and downstream
   callers such as the pricing oracle agree on what "zero" means. *)

let feas_eps = 1e-7
let pivot_eps = 1e-9
let drift_eps = 1e-6
let solve_eps = 1e-9
let driveout_eps = 1e-6
let eta_drop_eps = 1e-13
let warm_pivot_eps = 1e-7
let cert_eps = 1e-6
let default_refactor_interval = 64
