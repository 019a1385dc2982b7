(* Edge-weighted conflict graphs in two representations:

   - [Dense]: the historical n x n matrix — O(1) lookup, O(n^2) memory,
     mutable via [set].  Built by [create] / [of_function] / [of_graph].
   - [Sparse]: immutable CSR (out-rows) + CSC (in-columns) over the
     non-zero entries at or above a weight floor [w_min], built by
     [of_entries].  Each destination row carries a certified upper bound
     on the total in-weight dropped below the floor, so independence
     checks against the sparse graph are exact up to that explicit slack
     (see the .mli). *)

type dense = { dsize : int; weights : float array array }

type sparse = {
  ssize : int;
  floor : float;
  out_off : int array; (* row u: out_tgt/out_w [out_off.(u) .. out_off.(u+1)) *)
  out_tgt : int array;
  out_w : float array;
  in_off : int array; (* column v: in_src/in_w — the "into v" adjacency *)
  in_src : int array;
  in_w : float array;
  dropped_in : float array; (* certified bound on dropped in-weight per row *)
}

type t = Dense of dense | Sparse of sparse

let create size =
  if size < 0 then invalid_arg "Weighted.create: negative size";
  Dense { dsize = size; weights = Array.make_matrix size size 0.0 }

let n = function Dense d -> d.dsize | Sparse s -> s.ssize

let check_vertex t v =
  if v < 0 || v >= n t then invalid_arg "Weighted: vertex out of range"

(* binary search for [v] in [tgt] restricted to [lo, hi) *)
let rec bsearch tgt lo hi v =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let x = tgt.(mid) in
    if x = v then mid else if x < v then bsearch tgt (mid + 1) hi v else bsearch tgt lo mid v

let w t u v =
  check_vertex t u;
  check_vertex t v;
  match t with
  | Dense d -> d.weights.(u).(v)
  | Sparse s ->
      let i = bsearch s.out_tgt s.out_off.(u) s.out_off.(u + 1) v in
      if i < 0 then 0.0 else s.out_w.(i)

let wbar t u v = w t u v +. w t v u

let set t u v x =
  check_vertex t u;
  check_vertex t v;
  if u = v then invalid_arg "Weighted.set: self-pair";
  if x < 0.0 then invalid_arg "Weighted.set: negative weight";
  match t with
  | Dense d -> d.weights.(u).(v) <- x
  | Sparse _ -> invalid_arg "Weighted.set: sparse graphs are immutable"

let of_function size f =
  let t = create size in
  for u = 0 to size - 1 do
    for v = 0 to size - 1 do
      if u <> v then set t u v (f u v)
    done
  done;
  t

let of_graph g =
  of_function (Graph.n g) (fun u v -> if Graph.mem_edge g u v then 1.0 else 0.0)

(* ---- sparse construction -------------------------------------------------- *)

let of_entries size ?(w_min = 0.0) ?dropped_in entries =
  if size < 0 then invalid_arg "Weighted.of_entries: negative size";
  if (not (Float.is_finite w_min)) || w_min < 0.0 then
    invalid_arg "Weighted.of_entries: w_min must be non-negative and finite";
  let dropped =
    match dropped_in with
    | None -> Array.make size 0.0
    | Some d ->
        if Array.length d <> size then
          invalid_arg "Weighted.of_entries: dropped_in length mismatch";
        Array.iter
          (fun x ->
            if (not (Float.is_finite x)) || x < 0.0 then
              invalid_arg "Weighted.of_entries: dropped_in entries must be >= 0")
          d;
        Array.copy d
  in
  let kept = ref [] in
  let nkept = ref 0 in
  Array.iter
    (fun ((u, v, x) as e) ->
      if u < 0 || u >= size || v < 0 || v >= size then
        invalid_arg "Weighted.of_entries: vertex out of range";
      if u = v then invalid_arg "Weighted.of_entries: self-pair";
      if (not (Float.is_finite x)) || x < 0.0 then
        invalid_arg "Weighted.of_entries: weights must be non-negative and finite";
      if x > 0.0 && x >= w_min then begin
        kept := e :: !kept;
        incr nkept
      end
      else dropped.(v) <- dropped.(v) +. x)
    entries;
  let nnz = !nkept in
  let srcs = Array.make nnz 0 and tgts = Array.make nnz 0 and ws = Array.make nnz 0.0 in
  List.iteri
    (fun i (u, v, x) ->
      srcs.(i) <- u;
      tgts.(i) <- v;
      ws.(i) <- x)
    !kept;
  (* both CSR directions are built via index permutations produced by
     stable counting sorts — O(nnz + size) per pass, no comparison sort *)
  let counting_sort_by keys order =
    let cnt = Array.make (size + 1) 0 in
    Array.iter (fun i -> cnt.(keys.(i) + 1) <- cnt.(keys.(i) + 1) + 1) order;
    for k = 1 to size do
      cnt.(k) <- cnt.(k) + cnt.(k - 1)
    done;
    let out = Array.make (Array.length order) 0 in
    Array.iter
      (fun i ->
        out.(cnt.(keys.(i))) <- i;
        cnt.(keys.(i)) <- cnt.(keys.(i)) + 1)
      order;
    out
  in
  let ident = Array.init nnz (fun i -> i) in
  let by_tgt = counting_sort_by tgts ident in
  (* stable by-src pass over a by-tgt permutation yields (u, v) order *)
  let by_out = counting_sort_by srcs by_tgt in
  for i = 1 to nnz - 1 do
    let a = by_out.(i - 1) and b = by_out.(i) in
    if srcs.(a) = srcs.(b) && tgts.(a) = tgts.(b) then
      invalid_arg "Weighted.of_entries: duplicate entry"
  done;
  let out_off = Array.make (size + 1) 0 in
  let out_tgt = Array.make nnz 0 and out_w = Array.make nnz 0.0 in
  Array.iter (fun i -> out_off.(srcs.(i) + 1) <- out_off.(srcs.(i) + 1) + 1) by_out;
  for u = 1 to size do
    out_off.(u) <- out_off.(u) + out_off.(u - 1)
  done;
  (* by_out is sorted by (u, v), so positions within a row are already
     ascending in v *)
  Array.iteri
    (fun pos i ->
      out_tgt.(pos) <- tgts.(i);
      out_w.(pos) <- ws.(i))
    by_out;
  let by_in = counting_sort_by tgts (counting_sort_by srcs ident) in
  let in_off = Array.make (size + 1) 0 in
  let in_src = Array.make nnz 0 and in_w = Array.make nnz 0.0 in
  Array.iter (fun i -> in_off.(tgts.(i) + 1) <- in_off.(tgts.(i) + 1) + 1) by_in;
  for v = 1 to size do
    in_off.(v) <- in_off.(v) + in_off.(v - 1)
  done;
  Array.iteri
    (fun pos i ->
      in_src.(pos) <- srcs.(i);
      in_w.(pos) <- ws.(i))
    by_in;
  Sparse
    { ssize = size; floor = w_min; out_off; out_tgt; out_w; in_off; in_src; in_w;
      dropped_in = dropped }

let is_sparse = function Dense _ -> false | Sparse _ -> true

let w_min = function Dense _ -> 0.0 | Sparse s -> s.floor

let dropped_in_bound t v =
  check_vertex t v;
  match t with Dense _ -> 0.0 | Sparse s -> s.dropped_in.(v)

let nnz = function
  | Sparse s -> Array.length s.out_tgt
  | Dense d ->
      let c = ref 0 in
      Array.iter (Array.iter (fun x -> if x > 0.0 then incr c)) d.weights;
      !c

let iter_out t u f =
  check_vertex t u;
  match t with
  | Dense d ->
      let row = d.weights.(u) in
      for v = 0 to d.dsize - 1 do
        if row.(v) > 0.0 then f v row.(v)
      done
  | Sparse s ->
      for i = s.out_off.(u) to s.out_off.(u + 1) - 1 do
        f s.out_tgt.(i) s.out_w.(i)
      done

let iter_into t v f =
  check_vertex t v;
  match t with
  | Dense d ->
      for u = 0 to d.dsize - 1 do
        if d.weights.(u).(v) > 0.0 then f u d.weights.(u).(v)
      done
  | Sparse s ->
      for i = s.in_off.(v) to s.in_off.(v + 1) - 1 do
        f s.in_src.(i) s.in_w.(i)
      done

(* Union of [v]'s out-row and in-column, ascending: a two-pointer merge
   over the sparse arrays, a row/column scan for the dense matrix.  The
   weight handed out is [w u v +. w v u] — bitwise what [wbar] returns for
   the pair, since an absent sparse direction reads as 0.0 there and
   [x +. 0.0 = x] for the positive stored weights. *)
let iter_wbar t v f =
  check_vertex t v;
  match t with
  | Dense d ->
      let row = d.weights.(v) in
      for u = 0 to d.dsize - 1 do
        let into = d.weights.(u).(v) and out = row.(u) in
        if u <> v && (into > 0.0 || out > 0.0) then f u (into +. out)
      done
  | Sparse s ->
      let i = ref s.in_off.(v) and i_end = s.in_off.(v + 1) in
      let o = ref s.out_off.(v) and o_end = s.out_off.(v + 1) in
      while !i < i_end || !o < o_end do
        let ui = if !i < i_end then s.in_src.(!i) else max_int in
        let uo = if !o < o_end then s.out_tgt.(!o) else max_int in
        if ui = uo then begin
          f ui (s.in_w.(!i) +. s.out_w.(!o));
          incr i;
          incr o
        end
        else if ui < uo then begin
          f ui s.in_w.(!i);
          incr i
        end
        else begin
          f uo s.out_w.(!o);
          incr o
        end
      done

let in_weight t v =
  let acc = ref 0.0 in
  iter_into t v (fun _ x -> acc := !acc +. x);
  !acc

(* ---- independence --------------------------------------------------------- *)

let incoming t ~into set =
  List.fold_left (fun acc u -> if u = into then acc else acc +. w t u into) 0.0 set

let is_independent t set = List.for_all (fun v -> incoming t ~into:v set < 1.0) set

let is_independent_arr t mask =
  if Array.length mask <> n t then invalid_arg "Weighted.is_independent_arr: bad mask";
  match t with
  | Dense d ->
      let ok = ref true in
      for v = 0 to d.dsize - 1 do
        if mask.(v) then begin
          let total = ref 0.0 in
          for u = 0 to d.dsize - 1 do
            if mask.(u) && u <> v then total := !total +. d.weights.(u).(v)
          done;
          if !total >= 1.0 then ok := false
        end
      done;
      !ok
  | Sparse s ->
      let ok = ref true in
      for v = 0 to s.ssize - 1 do
        if mask.(v) then begin
          let total = ref 0.0 in
          for i = s.in_off.(v) to s.in_off.(v + 1) - 1 do
            if mask.(s.in_src.(i)) then total := !total +. s.in_w.(i)
          done;
          if !total >= 1.0 then ok := false
        end
      done;
      !ok

let copy = function
  | Dense d -> Dense { d with weights = Array.map Array.copy d.weights }
  | Sparse s ->
      Sparse
        {
          s with
          out_off = Array.copy s.out_off;
          out_tgt = Array.copy s.out_tgt;
          out_w = Array.copy s.out_w;
          in_off = Array.copy s.in_off;
          in_src = Array.copy s.in_src;
          in_w = Array.copy s.in_w;
          dropped_in = Array.copy s.dropped_in;
        }

let pp fmt t =
  match t with
  | Dense d -> Format.fprintf fmt "weighted-graph(n=%d)" d.dsize
  | Sparse s ->
      Format.fprintf fmt "weighted-graph(n=%d, nnz=%d, w_min=%g)" s.ssize
        (Array.length s.out_tgt) s.floor
