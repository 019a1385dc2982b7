module Graph = Sa_graph.Graph
module Weighted = Sa_graph.Weighted
module Ordering = Sa_graph.Ordering
module Bundle = Sa_val.Bundle
module Valuation = Sa_val.Valuation

let version = 1

(* ------------------------------- writing ------------------------------- *)

let emit_graph buf g =
  Graph.iter_edges g (fun u v -> Buffer.add_string buf (Printf.sprintf "edge %d %d\n" u v));
  Buffer.add_string buf "end\n"

let emit_weighted buf wg =
  let n = Weighted.n wg in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then begin
        let w = Weighted.w wg u v in
        if w > 0.0 then Buffer.add_string buf (Printf.sprintf "w %d %d %.17g\n" u v w)
      end
    done
  done;
  Buffer.add_string buf "end\n"

let emit_floats buf xs =
  Array.iter (fun x -> Buffer.add_string buf (Printf.sprintf " %.17g" x)) xs

let emit_bidder buf v valuation =
  match valuation with
  | Valuation.Xor bids ->
      Buffer.add_string buf (Printf.sprintf "bidder %d xor %d\n" v (List.length bids));
      List.iter
        (fun (b, value) ->
          Buffer.add_string buf
            (Printf.sprintf "bid %d %.17g\n" (Bundle.to_int b) value))
        bids
  | Valuation.Additive values ->
      Buffer.add_string buf (Printf.sprintf "bidder %d additive" v);
      emit_floats buf values;
      Buffer.add_char buf '\n'
  | Valuation.Unit_demand values ->
      Buffer.add_string buf (Printf.sprintf "bidder %d unit-demand" v);
      emit_floats buf values;
      Buffer.add_char buf '\n'
  | Valuation.Symmetric f ->
      Buffer.add_string buf (Printf.sprintf "bidder %d symmetric" v);
      emit_floats buf f;
      Buffer.add_char buf '\n'
  | Valuation.Budget_additive { values; budget } ->
      Buffer.add_string buf (Printf.sprintf "bidder %d budget-additive %.17g" v budget);
      emit_floats buf values;
      Buffer.add_char buf '\n'
  | Valuation.Or_bids bids ->
      Buffer.add_string buf (Printf.sprintf "bidder %d or %d\n" v (List.length bids));
      List.iter
        (fun (b, value) ->
          Buffer.add_string buf
            (Printf.sprintf "bid %d %.17g\n" (Bundle.to_int b) value))
        bids

let emit_conflict buf conflict =
  match conflict with
  | Instance.Unweighted g ->
      Buffer.add_string buf "conflict unweighted\n";
      emit_graph buf g
  | Instance.Edge_weighted wg ->
      Buffer.add_string buf "conflict weighted\n";
      emit_weighted buf wg
  | Instance.Per_channel gs ->
      Buffer.add_string buf "conflict per-channel\n";
      Array.iteri
        (fun j g ->
          Buffer.add_string buf (Printf.sprintf "channel %d\n" j);
          emit_graph buf g)
        gs
  | Instance.Per_channel_weighted wgs ->
      Buffer.add_string buf "conflict per-channel-weighted\n";
      Array.iteri
        (fun j wg ->
          Buffer.add_string buf (Printf.sprintf "channel %d\n" j);
          emit_weighted buf wg)
        wgs

let instance_to_string inst =
  let buf = Buffer.create 4096 in
  let n = Instance.n inst in
  Buffer.add_string buf (Printf.sprintf "specauction-instance %d\n" version);
  Buffer.add_string buf
    (Printf.sprintf "n %d k %d rho %.17g\n" n inst.Instance.k inst.Instance.rho);
  Buffer.add_string buf "ordering";
  Array.iter
    (fun v -> Buffer.add_string buf (Printf.sprintf " %d" v))
    (Ordering.to_order inst.Instance.ordering);
  Buffer.add_char buf '\n';
  emit_conflict buf inst.Instance.conflict;
  Array.iteri
    (fun v mask ->
      if not (Bundle.equal mask (Bundle.full inst.Instance.k)) then
        Buffer.add_string buf
          (Printf.sprintf "available %d %d\n" v (Bundle.to_int mask)))
    inst.Instance.available;
  Array.iteri (fun v b -> emit_bidder buf v b) inst.Instance.bidders;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

(* ------------------------------- reading ------------------------------- *)

type reader = { lines : string array; mutable pos : int }

(* [r.pos] is one past the line just read, i.e. its 1-based number. *)
let fail r msg = failwith (Printf.sprintf "Serialize: line %d: %s" (max 1 r.pos) msg)

(* Constructors reject bad data with [Invalid_argument]; the parser's
   contract is a line-numbered [Failure]. *)
let guard r f = try f () with Invalid_argument msg -> fail r msg

let next_line r =
  let rec go () =
    if r.pos >= Array.length r.lines then None
    else begin
      let line = String.trim r.lines.(r.pos) in
      r.pos <- r.pos + 1;
      if line = "" || line.[0] = '#' then go () else Some line
    end
  in
  go ()

let expect_line r =
  match next_line r with Some l -> l | None -> fail r "unexpected end of input"

let words line = String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let int_of r s =
  match int_of_string_opt s with Some v -> v | None -> fail r ("bad int: " ^ s)

let float_of r s =
  match float_of_string_opt s with Some v -> v | None -> fail r ("bad float: " ^ s)

(* A declared count of following lines, checked before anything is
   allocated for it. *)
let count_of r s =
  let c = int_of r s in
  if c < 0 || c > Array.length r.lines - r.pos then fail r ("bad count: " ^ s);
  c

let index_of r s ~n =
  let v = int_of r s in
  if v < 0 || v >= n then fail r ("index out of range: " ^ s);
  v

let bundle_of r s = guard r (fun () -> Bundle.of_int (int_of r s))

let read_graph r n =
  let g = Graph.create n in
  let rec go () =
    match words (expect_line r) with
    | [ "end" ] -> g
    | [ "edge"; u; v ] ->
        guard r (fun () -> Graph.add_edge g (int_of r u) (int_of r v));
        go ()
    | _ -> fail r "expected 'edge u v' or 'end'"
  in
  go ()

let read_weighted r n =
  let wg = Weighted.create n in
  let rec go () =
    match words (expect_line r) with
    | [ "end" ] -> wg
    | [ "w"; u; v; x ] ->
        guard r (fun () -> Weighted.set wg (int_of r u) (int_of r v) (float_of r x));
        go ()
    | _ -> fail r "expected 'w u v x' or 'end'"
  in
  go ()

let read_per_channel r n k read_one =
  Array.init k (fun j ->
      match words (expect_line r) with
      | [ "channel"; j' ] when int_of r j' = j -> read_one r n
      | _ -> fail r (Printf.sprintf "expected 'channel %d'" j))

let read_bidders r n k first_line =
  let bidders = Array.make n (Valuation.Xor []) in
  let masks = ref [] in
  let parse_floats rest = Array.of_list (List.map (float_of r) rest) in
  let set v valuation =
    guard r (fun () -> Valuation.validate valuation ~k);
    bidders.(v) <- valuation
  in
  let read_bids count =
    List.init (count_of r count) (fun _ ->
        match words (expect_line r) with
        | [ "bid"; mask; value ] -> (bundle_of r mask, float_of r value)
        | _ -> fail r "expected 'bid mask value'")
  in
  let rec go line =
    match words line with
    | [ "end" ] -> ()
    | [ "available"; v; mask ] ->
        masks := (index_of r v ~n, bundle_of r mask) :: !masks;
        go (expect_line r)
    | "bidder" :: v :: "xor" :: [ count ] ->
        let v = index_of r v ~n in
        set v (Valuation.Xor (read_bids count));
        go (expect_line r)
    | "bidder" :: v :: "additive" :: rest ->
        set (index_of r v ~n) (Valuation.Additive (parse_floats rest));
        go (expect_line r)
    | "bidder" :: v :: "unit-demand" :: rest ->
        set (index_of r v ~n) (Valuation.Unit_demand (parse_floats rest));
        go (expect_line r)
    | "bidder" :: v :: "symmetric" :: rest ->
        set (index_of r v ~n) (Valuation.Symmetric (parse_floats rest));
        go (expect_line r)
    | "bidder" :: v :: "budget-additive" :: budget :: rest ->
        set (index_of r v ~n)
          (Valuation.Budget_additive
             { values = parse_floats rest; budget = float_of r budget });
        go (expect_line r)
    | "bidder" :: v :: "or" :: [ count ] ->
        let v = index_of r v ~n in
        set v (Valuation.Or_bids (read_bids count));
        go (expect_line r)
    | _ -> fail r "expected a bidder declaration or 'end'"
  in
  go first_line;
  let available =
    if !masks = [] then None
    else begin
      let arr = Array.make n (Bundle.full k) in
      List.iter (fun (v, m) -> arr.(v) <- m) !masks;
      Some arr
    end
  in
  (bidders, available)

let instance_of_string s =
  let r = { lines = Array.of_list (String.split_on_char '\n' s); pos = 0 } in
  (match words (expect_line r) with
  | [ "specauction-instance"; v ] when int_of r v = version -> ()
  | _ -> fail r "bad header");
  let n, k, rho =
    match words (expect_line r) with
    | [ "n"; n; "k"; k; "rho"; rho ] -> (int_of r n, int_of r k, float_of r rho)
    | _ -> fail r "expected 'n <n> k <k> rho <rho>'"
  in
  if n < 0 then fail r "negative n";
  if k < 1 || k > Bundle.max_channels then fail r "k out of range";
  (* the ordering lists all n vertices, so it bounds n before any n-sized
     structure is allocated *)
  let ordering =
    match words (expect_line r) with
    | "ordering" :: rest ->
        if List.length rest <> n then fail r "ordering must list n vertices";
        guard r (fun () -> Ordering.of_order (Array.of_list (List.map (int_of r) rest)))
    | _ -> fail r "expected 'ordering ...'"
  in
  let conflict =
    match words (expect_line r) with
    | [ "conflict"; "unweighted" ] -> Instance.Unweighted (read_graph r n)
    | [ "conflict"; "weighted" ] -> Instance.Edge_weighted (read_weighted r n)
    | [ "conflict"; "per-channel" ] ->
        Instance.Per_channel (read_per_channel r n k read_graph)
    | [ "conflict"; "per-channel-weighted" ] ->
        Instance.Per_channel_weighted (read_per_channel r n k read_weighted)
    | _ -> fail r "expected a conflict section"
  in
  let bidders, available = read_bidders r n k (expect_line r) in
  guard r (fun () ->
      let inst = Instance.make ~conflict ~k ~bidders ~ordering ~rho in
      match available with
      | None -> inst
      | Some masks -> Instance.with_available inst masks)

(* ------------------------------ allocations ----------------------------- *)

let allocation_to_string alloc =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "specauction-allocation %d\n" version);
  Buffer.add_string buf (Printf.sprintf "n %d\n" (Array.length alloc));
  Array.iteri
    (fun v b ->
      if not (Bundle.is_empty b) then
        Buffer.add_string buf (Printf.sprintf "alloc %d %d\n" v (Bundle.to_int b)))
    alloc;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let allocation_of_string s =
  let r = { lines = Array.of_list (String.split_on_char '\n' s); pos = 0 } in
  (match words (expect_line r) with
  | [ "specauction-allocation"; v ] when int_of r v = version -> ()
  | _ -> fail r "bad header");
  let n =
    match words (expect_line r) with
    | [ "n"; n ] -> int_of r n
    | _ -> fail r "expected 'n <n>'"
  in
  (* the format lists only non-empty bundles, so n is not bounded by the
     input; it must still be a valid array length *)
  if n < 0 || n > Sys.max_array_length then fail r "n out of range";
  let alloc = Allocation.empty n in
  let rec go () =
    match words (expect_line r) with
    | [ "end" ] -> alloc
    | [ "alloc"; v; mask ] ->
        let v = index_of r v ~n in
        alloc.(v) <- bundle_of r mask;
        go ()
    | _ -> fail r "expected 'alloc v mask' or 'end'"
  in
  go ()

(* ------------------------------ fingerprints ----------------------------- *)

let digest_hex s = Digest.to_hex (Digest.string s)

let fingerprint inst = digest_hex (instance_to_string inst)

let conflict_fingerprint conflict =
  let buf = Buffer.create 1024 in
  emit_conflict buf conflict;
  digest_hex (Buffer.contents buf)

let shape_fingerprint inst =
  let buf = Buffer.create 4096 in
  let n = Instance.n inst in
  Buffer.add_string buf
    (Printf.sprintf "shape n %d k %d rho %.17g\n" n inst.Instance.k inst.Instance.rho);
  Buffer.add_string buf "ordering";
  Array.iter
    (fun v -> Buffer.add_string buf (Printf.sprintf " %d" v))
    (Ordering.to_order inst.Instance.ordering);
  Buffer.add_char buf '\n';
  emit_conflict buf inst.Instance.conflict;
  (* availability-filtered support masks, in the order [Lp_relaxation]
     materialises columns — this pins the LP's variable and row layout *)
  for v = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "support %d" v);
    Valuation.support inst.Instance.bidders.(v) ~k:inst.Instance.k
    |> List.filter (fun (bundle, _) ->
           Bundle.equal bundle (Instance.restrict_bundle inst ~bidder:v bundle))
    |> List.iter (fun (bundle, _) ->
           Buffer.add_string buf (Printf.sprintf " %d" (Bundle.to_int bundle)));
    Buffer.add_char buf '\n'
  done;
  digest_hex (Buffer.contents buf)

(* --------------------------------- files -------------------------------- *)

let save_instance path inst =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (instance_to_string inst))

let load_instance path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      instance_of_string (really_input_string ic len))
