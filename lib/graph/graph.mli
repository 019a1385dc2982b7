(** Unweighted conflict graphs (Section 2).

    Vertices are bidders [0 .. n-1]; an edge means the two bidders may never
    share a channel.  Feasible channel allocations are exactly the
    independent sets (Problem 1).

    Adjacency is stored as packed bitset rows (word-parallel AND/popcount
    queries) plus a lazily frozen CSR neighbour form; the mutable builder
    API ([create] / [add_edge]) is unchanged, and mutation invalidates the
    frozen form. *)

type t

val create : int -> t
(** [create n] is the edgeless graph on [n] vertices. *)

val of_edges : int -> (int * int) list -> t
(** [of_edges n edges] builds the graph; self-loops are rejected, duplicate
    edges are merged. *)

val n : t -> int
(** Number of vertices. *)

val num_edges : t -> int

val add_edge : t -> int -> int -> unit
(** Idempotent; rejects self-loops and out-of-range vertices. *)

val add_edges_bulk : t -> (int * int) array -> unit
(** Add every pair in one pass, writing the packed bitset rows directly:
    no per-edge frozen-form invalidation (the CSR is dropped once at the
    end).  Duplicate pairs and edges already present are merged, exactly
    like repeated {!add_edge}.  The bulk entry point for grid-based
    constructors emitting candidate edge lists. *)

val mem_edge : t -> int -> int -> bool
(** O(1) adjacency test. *)

val neighbors : t -> int -> int list
(** Sorted list of neighbours. *)

val freeze : t -> unit
(** Build the CSR form now rather than on first use.  The lazy build
    publishes through a plain mutable field, so a graph read from several
    domains at once should be frozen first (and not mutated afterwards);
    [Sa_core.Instance.make] freezes every graph of its conflict. *)

val is_frozen : t -> bool
(** Whether the CSR form is built (and not invalidated by a mutation). *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Ascending neighbour iteration over the frozen CSR form — no per-call
    allocation, unlike {!neighbors}. *)

val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val exists_neighbor : t -> int -> (int -> bool) -> bool
(** Early-exit existential over neighbours (ascending). *)

val degree : t -> int -> int

val max_degree : t -> int

val avg_degree : t -> float
(** Average vertex degree [d̄] (the edge-LP bound of §2.1 is [(d̄+1)/2]). *)

val edges : t -> (int * int) list
(** All edges [(u, v)] with [u < v]. *)

val iter_edges : t -> (int -> int -> unit) -> unit

val complement : t -> t

val induced : t -> int array -> t
(** [induced g vs] is the subgraph induced by [vs]; vertex [i] of the result
    corresponds to [vs.(i)]. *)

val square : t -> t
(** Distance-2 graph: edge [(i, j)] when [j] is within two hops of [i].
    Runs over the frozen CSR form in O(Σ deg²) — the shared kernel behind
    the distance-2 coloring constructions (Prop 17). *)

val clique : int -> t
(** Complete graph — models a regular combinatorial auction (every pair of
    bidders conflicts). *)

val is_independent : t -> int list -> bool
(** No edge inside the set (word-wise row/set intersection). *)

val words_per_row : t -> int
(** Words per packed adjacency row; masks from {!mask_create} /
    {!mask_of_list} have exactly this length. *)

val mask_create : t -> int array
(** Empty {!Bitset} mask over this graph's vertices. *)

val mask_of_list : t -> int list -> int array

val row_intersects : t -> int -> int array -> bool
(** [row_intersects g v mask] — does [v] have a neighbour inside [mask]?
    One AND per word, early exit. *)

val row_inter_card : t -> int -> int array -> int
(** Number of neighbours of [v] inside [mask] (AND + popcount). *)

val exists_row_inter : t -> int -> int array -> (int -> bool) -> bool
(** [exists_row_inter g v mask p] — is there a neighbour [u] of [v] with
    [mask] membership and [p u]?  Scans only the set bits of the word-wise
    intersection. *)

val copy : t -> t

val pp : Format.formatter -> t -> unit
(** Summary ["graph(n=…, m=…)"]. *)
