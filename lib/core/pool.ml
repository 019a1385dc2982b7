(* Persistent domain pool with a dynamic self-scheduling (work-stealing)
   batch scheduler.

   Every fan-out used to pay [Domain.spawn]/[Domain.join] per
   call and assigned indices in fixed strides, so one expensive item
   stalled its stride while sibling domains idled.  Here worker domains
   are spawned once (lazily, on the first batch that needs them), parked
   on a condition variable between batches, and items are handed out in
   chunks claimed from a shared atomic cursor — chunk size adapts to the
   remaining work, guided-self-scheduling style — with chunk splitting
   (stealing the top half of another participant's remainder) once the
   cursor runs dry.

   Determinism: scheduling decides only WHERE an item runs, never what it
   computes — [run i] writes into a preassigned slot [i] and derives any
   randomness from [i] — so results are bitwise independent of the domain
   count, the chunk size, and the steal pattern.  The scheduler's own
   telemetry (chunks claimed, steals) is timing-dependent and documented
   as such.

   Deadlock freedom: the submitter always participates in its own batch
   and never blocks waiting for a free worker, so a batch completes even
   when every pool worker is busy — in particular a nested [map_array]
   issued from inside a pool item makes progress on the submitting domain
   alone.  Waits only ever point from a submitter to the items of the
   batch it submitted (strict nesting), so there is no cycle. *)

module Tel = Sa_telemetry.Metrics

let m_batches = Tel.counter "engine.pool.batches"
let m_items = Tel.counter "engine.pool.items"
let m_chunks = Tel.counter "engine.pool.chunks"
let m_steals = Tel.counter "engine.pool.steals"
let m_spawned = Tel.counter "engine.pool.workers_spawned"
let g_workers = Tel.gauge "engine.pool.workers"

(* A participant's unfinished chunk, packed [(lo lsl 31) lor hi] into one
   atomic int so owner pops (lo side) and thief splits (hi side) are single
   CASes.  Ranges come from a strictly increasing cursor, so a packed value
   can never recur — no ABA.  Caps batches at 2^31 items. *)
let pack lo hi = (lo lsl 31) lor hi

let unpack x = (x lsr 31, x land 0x7FFFFFFF)
let empty_slot = pack 0 0
let max_items = 1 lsl 31

(* Adaptive chunks taper as work drains: take remaining/(2·participants),
   clamped to [1, 64] so early chunks amortize claim traffic and late ones
   keep the tail balanced. *)
let max_adaptive_chunk = 64

type batch = {
  total : int; (* items are the indices [start, total) of the source array *)
  run : int -> unit; (* executes one item; writes its preassigned slot *)
  cursor : int Atomic.t;
  pending : int Atomic.t;
  chunk : int option; (* fixed chunk size; [None] = adaptive *)
  width : int; (* max participants = slot count *)
  slots : int Atomic.t array;
  next_slot : int Atomic.t;
  b_chunks : int Atomic.t;
  b_steals : int Atomic.t;
  mu : Mutex.t;
  cv : Condition.t;
  mutable finished : bool;
  mutable failure : (int * exn * Printexc.raw_backtrace) option;
      (* lowest-index failure; items keep running after one fails so the
         recorded index is deterministic *)
}

type t = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable queue : batch list;
  mutable workers : unit Domain.t list;
  mutable nworkers : int;
  mutable stopping : bool;
}

let create () =
  {
    lock = Mutex.create ();
    cond = Condition.create ();
    queue = [];
    workers = [];
    nworkers = 0;
    stopping = false;
  }

let worker_count t =
  Mutex.lock t.lock;
  let n = t.nworkers in
  Mutex.unlock t.lock;
  n

(* ------------------------------ batch work ------------------------------- *)

let claim_slot b =
  if Atomic.get b.next_slot >= b.width then None
  else
    let s = Atomic.fetch_and_add b.next_slot 1 in
    if s < b.width then Some s else None

let rec pop_own b s =
  let x = Atomic.get b.slots.(s) in
  let lo, hi = unpack x in
  if lo >= hi then None
  else if Atomic.compare_and_set b.slots.(s) x (pack (lo + 1) hi) then Some lo
  else pop_own b s

let claim_chunk b s =
  let cur = Atomic.get b.cursor in
  if cur >= b.total then false
  else begin
    let take =
      match b.chunk with
      | Some c -> c
      | None ->
          max 1 (min max_adaptive_chunk ((b.total - cur) / (2 * b.width)))
    in
    let lo = Atomic.fetch_and_add b.cursor take in
    if lo >= b.total then false
    else begin
      Atomic.set b.slots.(s) (pack lo (min b.total (lo + take)));
      Atomic.incr b.b_chunks;
      true
    end
  end

(* Steal the top half of another participant's remainder.  Only attempted
   once the cursor is exhausted, so the extra contention is confined to the
   batch tail, where it pays for itself on skewed item costs. *)
let try_steal b s =
  let rec scan v =
    if v >= b.width then false
    else if v = s then scan (v + 1)
    else
      let x = Atomic.get b.slots.(v) in
      let lo, hi = unpack x in
      if hi - lo >= 2 then begin
        let take = (hi - lo) / 2 in
        if Atomic.compare_and_set b.slots.(v) x (pack lo (hi - take)) then begin
          Atomic.set b.slots.(s) (pack (hi - take) hi);
          Atomic.incr b.b_steals;
          true
        end
        else scan v
      end
      else scan (v + 1)
  in
  scan 0

let finish_batch t b =
  Mutex.lock t.lock;
  t.queue <- List.filter (fun b' -> b' != b) t.queue;
  Mutex.unlock t.lock;
  Mutex.lock b.mu;
  b.finished <- true;
  Condition.broadcast b.cv;
  Mutex.unlock b.mu

let exec t b i =
  (try b.run i
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     Mutex.lock b.mu;
     (match b.failure with
     | Some (j, _, _) when j <= i -> ()
     | _ -> b.failure <- Some (i, e, bt));
     Mutex.unlock b.mu);
  if Atomic.fetch_and_add b.pending (-1) = 1 then finish_batch t b

let participate t b =
  match claim_slot b with
  | None -> ()
  | Some s ->
      let continue_ = ref true in
      while !continue_ do
        match pop_own b s with
        | Some i -> exec t b i
        | None ->
            if not (claim_chunk b s) && not (try_steal b s) then
              continue_ := false
      done

(* A batch is worth joining while it still has claimable or stealable items
   and a free participant slot.  The check races benignly with completion:
   [participate] just returns when it finds nothing. *)
let joinable b =
  Atomic.get b.next_slot < b.width
  && (Atomic.get b.cursor < b.total
     || Array.exists
          (fun slot ->
            let lo, hi = unpack (Atomic.get slot) in
            hi - lo >= 2)
          b.slots)

(* ------------------------------- workers --------------------------------- *)

let rec worker_loop t =
  Mutex.lock t.lock;
  let rec find () =
    match List.find_opt joinable t.queue with
    | Some b -> Some b
    | None ->
        if t.stopping then None
        else begin
          Condition.wait t.cond t.lock;
          find ()
        end
  in
  match find () with
  | None -> Mutex.unlock t.lock
  | Some b ->
      Mutex.unlock t.lock;
      participate t b;
      worker_loop t

(* Lazily grow the worker set to [want] domains (the submitter is the
   extra participant, so a [domains = d] batch asks for [d - 1]). *)
let max_workers = 64

let ensure_workers t want =
  let want = min want max_workers in
  Mutex.lock t.lock;
  if t.stopping then begin
    Mutex.unlock t.lock;
    invalid_arg "Pool: submitted to a shut-down pool"
  end;
  let missing = want - t.nworkers in
  if missing > 0 then begin
    Tel.add m_spawned missing;
    for _ = 1 to missing do
      t.workers <- Domain.spawn (fun () -> worker_loop t) :: t.workers
    done;
    t.nworkers <- t.nworkers + missing;
    Tel.set_gauge g_workers (float_of_int t.nworkers)
  end;
  Mutex.unlock t.lock

let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.broadcast t.cond;
  let ws = t.workers in
  t.workers <- [];
  t.nworkers <- 0;
  Mutex.unlock t.lock;
  List.iter Domain.join ws;
  Tel.set_gauge g_workers 0.0

(* ----------------------------- default pool ------------------------------ *)

let default_domains = max 1 (Domain.recommended_domain_count () - 1)

(* Process-wide pool shared by every fan-out.  [shutdown] on it is
   honoured — the next [default ()] transparently builds a fresh pool, so
   tests (and embedders that fork) can recycle the worker set. *)
let default_lock = Mutex.create ()
let default_pool = ref None

let default () =
  Mutex.lock default_lock;
  let t =
    match !default_pool with
    | Some t when not t.stopping -> t
    | _ ->
        let t = create () in
        default_pool := Some t;
        t
  in
  Mutex.unlock default_lock;
  t

(* ------------------------------ submission ------------------------------- *)

let map_array ?pool ?(domains = 1) ?chunk f arr =
  if domains < 1 then invalid_arg "Pool.map_array: domains must be >= 1";
  (match chunk with
  | Some c when c < 1 -> invalid_arg "Pool.map_array: chunk must be >= 1"
  | _ -> ());
  let n = Array.length arr in
  if n = 0 then [||]
  else if n >= max_items then invalid_arg "Pool.map_array: array too large"
  else
    let d = min domains n in
    if d = 1 then Array.map f arr
    else begin
      let t = match pool with Some t -> t | None -> default () in
      (* Index 0 runs eagerly on the submitter: its result seeds the
         placeholder-free result buffer (no per-element option boxing), and
         an exception it raises propagates directly — index 0 is by
         definition the lowest failure. *)
      let r0 = f arr.(0) in
      let results = Array.make n r0 in
      let b =
        {
          total = n;
          run = (fun i -> results.(i) <- f arr.(i));
          cursor = Atomic.make 1;
          pending = Atomic.make (n - 1);
          chunk;
          width = d;
          slots = Array.init d (fun _ -> Atomic.make empty_slot);
          next_slot = Atomic.make 0;
          b_chunks = Atomic.make 0;
          b_steals = Atomic.make 0;
          mu = Mutex.create ();
          cv = Condition.create ();
          finished = false;
          failure = None;
        }
      in
      Tel.incr m_batches;
      Tel.add m_items (n - 1);
      ensure_workers t (d - 1);
      Mutex.lock t.lock;
      t.queue <- t.queue @ [ b ];
      Condition.broadcast t.cond;
      Mutex.unlock t.lock;
      participate t b;
      Mutex.lock b.mu;
      while not b.finished do
        Condition.wait b.cv b.mu
      done;
      let failure = b.failure in
      Mutex.unlock b.mu;
      Tel.add m_chunks (Atomic.get b.b_chunks);
      Tel.add m_steals (Atomic.get b.b_steals);
      Sa_telemetry.Trace.add_attr "pool.chunks"
        (string_of_int (Atomic.get b.b_chunks));
      Sa_telemetry.Trace.add_attr "pool.steals"
        (string_of_int (Atomic.get b.b_steals));
      (match failure with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ());
      results
    end
