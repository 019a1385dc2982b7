(* Packed-bitset conflict graphs.

   Adjacency is stored as one bitset row per vertex in a single flat
   [int array] ([wpr] words per row), so [mem_edge] is a bit test and
   set-vs-neighbourhood queries ([is_independent], the rounding and rho
   kernels) are word-parallel AND/popcount over rows.  Neighbour
   enumeration goes through a CSR (offsets + targets) form that is frozen
   lazily from the bitset rows and invalidated by [add_edge], keeping the
   historical mutable-builder API intact. *)

type csr = { offsets : int array; targets : int array }

type t = {
  size : int;
  wpr : int; (* words per adjacency row *)
  bits : int array; (* row v occupies bits.[v*wpr .. v*wpr+wpr-1] *)
  mutable m : int;
  mutable csr : csr option; (* frozen neighbour arrays; None after mutation *)
}

let word_bits = Bitset.word_bits

let create size =
  if size < 0 then invalid_arg "Graph.create: negative size";
  let wpr = Bitset.words_for size in
  { size; wpr; bits = Array.make (size * wpr) 0; m = 0; csr = None }

let n g = g.size
let num_edges g = g.m
let words_per_row g = g.wpr

let check_vertex g v =
  if v < 0 || v >= g.size then invalid_arg "Graph: vertex out of range"

let set_bit g u v =
  let idx = (u * g.wpr) + (v / word_bits) in
  g.bits.(idx) <- g.bits.(idx) lor (1 lsl (v mod word_bits))

let test_bit g u v =
  g.bits.((u * g.wpr) + (v / word_bits)) land (1 lsl (v mod word_bits)) <> 0

let add_edge g u v =
  check_vertex g u;
  check_vertex g v;
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  if not (test_bit g u v) then begin
    set_bit g u v;
    set_bit g v u;
    g.m <- g.m + 1;
    g.csr <- None
  end

(* Bulk loader for grid-based constructors: one validation pass, direct
   bitset writes, a single CSR invalidation at the end instead of one per
   edge.  Duplicates (including pairs already present) are merged. *)
let add_edges_bulk g pairs =
  let added = ref 0 in
  Array.iter
    (fun (u, v) ->
      check_vertex g u;
      check_vertex g v;
      if u = v then invalid_arg "Graph.add_edges_bulk: self-loop";
      if not (test_bit g u v) then begin
        set_bit g u v;
        set_bit g v u;
        incr added
      end)
    pairs;
  if !added > 0 then begin
    g.m <- g.m + !added;
    g.csr <- None
  end

let of_edges size edges =
  let g = create size in
  List.iter (fun (u, v) -> add_edge g u v) edges;
  g

let mem_edge g u v =
  check_vertex g u;
  check_vertex g v;
  test_bit g u v

(* ---- frozen CSR form ----------------------------------------------------- *)

let frozen g =
  match g.csr with
  | Some c -> c
  | None ->
      let offsets = Array.make (g.size + 1) 0 in
      for v = 0 to g.size - 1 do
        let base = v * g.wpr in
        let d = ref 0 in
        for wi = 0 to g.wpr - 1 do
          let w = g.bits.(base + wi) in
          if w <> 0 then d := !d + Bitset.popcount w
        done;
        offsets.(v + 1) <- offsets.(v) + !d
      done;
      let targets = Array.make offsets.(g.size) 0 in
      for v = 0 to g.size - 1 do
        let base = v * g.wpr in
        let pos = ref offsets.(v) in
        for wi = 0 to g.wpr - 1 do
          let w = g.bits.(base + wi) in
          if w <> 0 then
            Bitset.iter_word
              (fun u ->
                targets.(!pos) <- u;
                incr pos)
              (wi * word_bits) w
        done
      done;
      let c = { offsets; targets } in
      g.csr <- Some c;
      c

let freeze g = ignore (frozen g)
let is_frozen g = g.csr <> None

let iter_neighbors g v f =
  check_vertex g v;
  let c = frozen g in
  for i = c.offsets.(v) to c.offsets.(v + 1) - 1 do
    f c.targets.(i)
  done

let fold_neighbors g v f acc =
  check_vertex g v;
  let c = frozen g in
  let acc = ref acc in
  for i = c.offsets.(v) to c.offsets.(v + 1) - 1 do
    acc := f !acc c.targets.(i)
  done;
  !acc

let exists_neighbor g v p =
  check_vertex g v;
  let c = frozen g in
  let i = ref c.offsets.(v) in
  let hi = c.offsets.(v + 1) in
  let found = ref false in
  while (not !found) && !i < hi do
    if p c.targets.(!i) then found := true;
    incr i
  done;
  !found

let neighbors g v = List.rev (fold_neighbors g v (fun acc u -> u :: acc) [])

let degree g v =
  check_vertex g v;
  let base = v * g.wpr in
  let d = ref 0 in
  for wi = 0 to g.wpr - 1 do
    let w = g.bits.(base + wi) in
    if w <> 0 then d := !d + Bitset.popcount w
  done;
  !d

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.size - 1 do
    best := max !best (degree g v)
  done;
  !best

let avg_degree g =
  if g.size = 0 then 0.0 else 2.0 *. float_of_int g.m /. float_of_int g.size

let iter_edges g f =
  let c = frozen g in
  for u = 0 to g.size - 1 do
    for i = c.offsets.(u) to c.offsets.(u + 1) - 1 do
      let v = c.targets.(i) in
      if v > u then f u v
    done
  done

let edges g =
  let acc = ref [] in
  iter_edges g (fun u v -> acc := (u, v) :: !acc);
  List.rev !acc

let complement g =
  let c = create g.size in
  for u = 0 to g.size - 1 do
    for v = u + 1 to g.size - 1 do
      if not (test_bit g u v) then add_edge c u v
    done
  done;
  c

let induced g vs =
  let sub = create (Array.length vs) in
  Array.iteri
    (fun i u ->
      check_vertex g u;
      Array.iteri (fun j v -> if j > i && test_bit g u v then add_edge sub i j) vs)
    vs;
  sub

(* Distance-2 ("square") graph over the frozen CSR form: edge (i, j) when
   j is a neighbour or a 2-hop neighbour of i.  A per-source stamp array
   dedups before buffering, so the work is O(sum of deg^2) instead of the
   n^2 mem_edge probes of the naive construction. *)
let square g =
  let sq = create g.size in
  let stamp = Array.make g.size (-1) in
  let buf = ref [] in
  for i = 0 to g.size - 1 do
    iter_neighbors g i (fun u ->
        if u > i && stamp.(u) <> i then begin
          stamp.(u) <- i;
          buf := (i, u) :: !buf
        end;
        iter_neighbors g u (fun j ->
            if j > i && stamp.(j) <> i then begin
              stamp.(j) <- i;
              buf := (i, j) :: !buf
            end))
  done;
  add_edges_bulk sq (Array.of_list !buf);
  sq

let clique size =
  let g = create size in
  for u = 0 to size - 1 do
    for v = u + 1 to size - 1 do
      add_edge g u v
    done
  done;
  g

(* ---- word-parallel set queries ------------------------------------------- *)

let mask_create g = Bitset.create g.size

let mask_of_list g l =
  let s = Bitset.create g.size in
  List.iter
    (fun v ->
      check_vertex g v;
      Bitset.add s v)
    l;
  s

let row_intersects g v mask =
  check_vertex g v;
  let base = v * g.wpr in
  let rec go wi = wi < g.wpr && (g.bits.(base + wi) land mask.(wi) <> 0 || go (wi + 1)) in
  go 0

let row_inter_card g v mask =
  check_vertex g v;
  let base = v * g.wpr in
  let acc = ref 0 in
  for wi = 0 to g.wpr - 1 do
    let w = g.bits.(base + wi) land mask.(wi) in
    if w <> 0 then acc := !acc + Bitset.popcount w
  done;
  !acc

let exists_row_inter g v mask p =
  check_vertex g v;
  let base = v * g.wpr in
  let found = ref false in
  let wi = ref 0 in
  while (not !found) && !wi < g.wpr do
    let w = ref (g.bits.(base + !wi) land mask.(!wi)) in
    let wbase = !wi * word_bits in
    while (not !found) && !w <> 0 do
      if p (wbase + Bitset.lowest_bit_index !w) then found := true
      else w := !w land (!w - 1)
    done;
    incr wi
  done;
  !found

let is_independent g set =
  match set with
  | [] -> true
  | [ v ] ->
      check_vertex g v;
      true
  | _ ->
      let mask = mask_of_list g set in
      (* no self-loops, so v's own bit never appears in row v *)
      List.for_all (fun v -> not (row_intersects g v mask)) set

let copy g =
  { size = g.size; wpr = g.wpr; bits = Array.copy g.bits; m = g.m; csr = g.csr }

let pp fmt g = Format.fprintf fmt "graph(n=%d, m=%d)" g.size g.m
