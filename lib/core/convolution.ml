module Special = Crossbar_numerics.Special
module Logspace = Crossbar_numerics.Logspace

(* The recurrence of Algorithm 1 factors per class (see DESIGN.md,
   "Class-factored convolution").  Writing Q(n1,n2) = G(n1,n2)/(n1! n2!)
   and matching coefficients in the paper's direction-1 recurrence shows

     G(n1, n2) = sum_u H(u) P(n1, u) P(n2, u),      P(n, u) = n!/(n-u)!

   where H = h_1 * ... * h_R is the 1-D convolution over used bandwidth
   [u] of per-class generating sequences h_r: for a class of bandwidth
   [a], per-pair intensity [rho] and burst ratio [theta = beta/mu],

     h_r(k a) = rho (rho + theta) ... (rho + (k-1) theta) / k!

   (Poisson classes are theta = 0, i.e. rho^k/k!; Bernoulli classes have
   theta < 0 and truncate at the source count).  We store each factor in
   corner-tilted form C_r(u) = h_r(u) P(N1,u) P(N2,u) so that every
   entry is bounded by the corner normalisation G(N1,N2) and the
   Section 6 dynamic rescale applies per partial product; tilted factors
   combine with the precomputed weights

     w_i(u, v) = P(N_i, u+v) / (P(N_i, u) P(N_i, v))
               = prod_{j<u} (N_i - j - v)/(N_i - j)   in (0, 1].

   The combine is associative up to rounding, so the factors can be
   multiplied in any tree shape; this module fixes one shape — a
   balanced binary tree with leaves C_1 .. C_R in class order — and
   makes it *the* solver.  Re-solving after changing any subset of the
   classes recombines only the root paths of the changed leaves
   (O(#changed log R) combines), and because the untouched nodes are
   shared physically and [combine] is deterministic, the result is
   bit-identical to a full rebuild.  The same tree yields every
   leave-one-out complement H_{-r} = prod_{s<>r} C_s in one top-down
   sweep of O(R) combines (the prefix x suffix identity; see
   docs/THEORY.md), which batches per-class marginal distributions and
   all R shadow costs out of a single solve.

   The combine itself runs as a cache-blocked kernel over Bigarray
   profiles with per-domain scratch arenas (zero major-heap allocation
   after warm-up) and, above a capacity threshold, splits its output
   into deterministic row bands computed by parallel domains — see
   DESIGN.md, "Combine kernels". *)

(* Per-domain scratch for the combine hot path: two chunk-scaled operand
   copies, the borrowed chunk counts of the current prechunk, and a free
   list of result-sized lattices recycled by [Factor_tree.update
   ~recycle] and the leave-one-out sweep.  One arena exists per (context,
   domain) pair — kept in the domain's own table (see [arena]), so
   combines issued concurrently by band workers or sweep pool workers
   never share scratch. *)
module Arena = struct
  type t = {
    left : Lattice.t;
    right : Lattice.t;
    mutable ka : int;
    mutable kb : int;
    mutable pool : Lattice.t list;
    mutable created : int;
    mutable reused : int;
  }

  let create ~cap =
    {
      left = Lattice.create ~capacity:cap ();
      right = Lattice.create ~capacity:cap ();
      ka = 0;
      kb = 0;
      pool = [];
      created = 0;
      reused = 0;
    }

  let created t = t.created
  let reused t = t.reused
  let pooled t = List.length t.pool

  (* Pops a recycled lattice — reset to the all-zero state, so callers
     cannot tell it from a fresh [create] — or creates one. *)
  let acquire t ~cap ~stride =
    match t.pool with
    | l :: rest ->
        t.pool <- rest;
        t.reused <- t.reused + 1;
        Lattice.reset ~stride l;
        l
    | [] ->
        t.created <- t.created + 1;
        Lattice.create ~stride ~capacity:cap ()

  (* Hands a lattice back for reuse.  Ownership is never inferred: a
     caller must guarantee no live structure still references [l]. *)
  let release t l = t.pool <- l :: t.pool
end

type floats =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type context = {
  id : int; (* keys the context's arena in each domain's table *)
  n1 : int;
  n2 : int;
  cap : int; (* min n1 n2: used bandwidth never exceeds either side *)
  w1 : Lattice.Grid.t;
  w2 : Lattice.Grid.t;
  band_threshold : int; (* cap >= this: parallelise a single combine *)
  band_domains : int; (* bands (domains) a banded combine splits into *)
  banded_total : int Atomic.t; (* banded combines through this context *)
  ratios : floats; (* the diagonal's ratio_j(u), packed; see [ratio_table] *)
}

let next_context_id = Atomic.make 0

let weight_grid ~ports ~cap =
  let g = Lattice.Grid.create ~rows:(cap + 1) ~cols:(cap + 1) in
  for v = 0 to cap do
    Lattice.Grid.unsafe_set g 0 v 1.;
    for u = 1 to cap - v do
      let j = u - 1 in
      Lattice.Grid.unsafe_set g u v
        (Lattice.Grid.unsafe_get g j v
        *. (float_of_int (ports - j - v) /. float_of_int (ports - j)))
    done
  done;
  g

(* The diagonal pass's weights (see [diagonal]),
     ratio_j(u) = prod_{i<u} ((N1-j-i)(N2-j-i)) / ((N1-i)(N2-i)),
   for 0 <= j <= cap and 1 <= u <= cap - j, packed row by row: row [j]
   holds its [cap - j] entries from offset [ratio_row cap j + 1].  They
   depend on the switch shape alone, so one table per context serves
   every solve, whose diagonal pass is then one multiply-add per term.
   The running product is the division recurrence's own expression,
   evaluated in its order, so every entry — and with it every diagonal —
   is bit-identical to that recurrence (test_factor_tree keeps it as the
   oracle).  Size cap (cap + 1) / 2 doubles: under half of one weight
   grid. *)
let ratio_row cap j = (j * cap) - (j * (j - 1) / 2) - 1

let ratio_table ~n1 ~n2 ~cap =
  let table =
    Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout
      (cap * (cap + 1) / 2)
  in
  for j = 0 to cap do
    let row = ratio_row cap j in
    let ratio = ref 1. in
    for u = 1 to cap - j do
      let i = u - 1 in
      ratio :=
        !ratio
        *. (float_of_int (n1 - j - i) /. float_of_int (n1 - i))
        *. (float_of_int (n2 - j - i) /. float_of_int (n2 - i));
      Bigarray.Array1.unsafe_set table (row + u) !ratio
    done
  done;
  table

(* Kernel block edge, in lattice entries.  It only keeps the grid rows
   the inner loop touches cache-resident and never changes a result, so
   it is a constant rather than a knob. *)
let tile = 64

(* Measured on the Band_pool dispatch path (see DESIGN.md, "Combine
   kernels"): a pool fan-out costs ~0.1 ms cold and far less once the
   completion spin hides the wake latency, against a dense kernel that
   crosses ~0.14 ms per combine near cap 256.  Banding starts paying
   around there, so the default sits at 256 — down from 1024, which was
   calibrated against Domain.spawn's ~0.8-4 ms round-trip. *)
let default_band_threshold = 256
let default_combine_threshold = default_band_threshold

let env_knob name =
  match Sys.getenv_opt name with
  | None -> None
  | Some text -> (
      (* Same contract as CROSSBAR_DOMAINS (see Domains.recommended): a
         malformed deploy-time override fails loudly. *)
      match int_of_string_opt (String.trim text) with
      | Some v when v >= 1 -> Some v
      | Some v ->
          invalid_arg
            (Printf.sprintf "Convolution.context_of: %s=%d must be >= 1" name
               v)
      | None ->
          invalid_arg
            (Printf.sprintf "Convolution.context_of: %s=%S is not an integer"
               name text))

let context_of ?combine_threshold ?band_domains ~inputs ~outputs () =
  let band_threshold =
    match combine_threshold with
    | Some t when t >= 1 -> t
    | Some t ->
        invalid_arg
          (Printf.sprintf
             "Convolution.context_of: combine_threshold=%d must be >= 1" t)
    | None -> (
        match env_knob "CROSSBAR_COMBINE_THRESHOLD" with
        | Some t -> t
        | None -> default_band_threshold)
  in
  let band_domains =
    match band_domains with
    | Some d when d >= 1 -> d
    | Some d ->
        invalid_arg
          (Printf.sprintf
             "Convolution.context_of: band_domains=%d must be >= 1" d)
    | None -> Domains.recommended ()
  in
  let cap = min inputs outputs in
  {
    id = Atomic.fetch_and_add next_context_id 1;
    n1 = inputs;
    n2 = outputs;
    cap;
    w1 = weight_grid ~ports:inputs ~cap;
    w2 = weight_grid ~ports:outputs ~cap;
    band_threshold;
    band_domains;
    banded_total = Atomic.make 0;
    ratios = ratio_table ~n1:inputs ~n2:outputs ~cap;
  }

let context_capacity ctx = ctx.cap

(* Each domain keeps the arenas of the last [arena_limit] contexts it
   combined with, in a table of its own; a context's arena on a domain
   is created on first use there and dropped, lattices and all, when
   [arena_limit] more recently used contexts displace it.  The domains
   of the persistent pool run solves of every shape a sweep or daemon
   meets, so without the bound each would keep an arena per shape ever
   solved.  The limit is twice the shared-context cache, so a working
   set of shared shapes plus a few private contexts stays resident.
   Only the domain itself reads or writes its table. *)
let arena_limit = 16

type arena_table = {
  ids : int array; (* context id per slot; -1 while the slot is free *)
  slots : Arena.t array;
  stamps : int array; (* [clock] at the slot's last use; 0 when free *)
  mutable clock : int;
}

(* Built once per domain, at its first combine. *)
let new_arena_table () =
  (* lint: alloc=ids -- once per domain *)
  let ids = Array.make arena_limit (-1) in
  (* lint: alloc=slots -- once per domain *)
  let slots = Array.make arena_limit (Arena.create ~cap:0) in
  (* lint: alloc=stamps -- once per domain *)
  let stamps = Array.make arena_limit 0 in
  (* lint: alloc=record -- once per domain *)
  { ids; slots; stamps; clock = 0 }

let arena_tables = Domain.DLS.new_key new_arena_table

let rec find_slot table id i =
  if i >= arena_limit then -1
  else if table.ids.(i) = id then i
  else find_slot table id (i + 1)

let rec stalest_slot table i best =
  if i >= arena_limit then best
  else
    stalest_slot table (i + 1)
      (if table.stamps.(i) < table.stamps.(best) then i else best)

let arena ctx =
  let table = Domain.DLS.get arena_tables in
  table.clock <- table.clock + 1;
  let slot =
    match find_slot table ctx.id 0 with
    | -1 ->
        let slot = stalest_slot table 1 0 in
        table.ids.(slot) <- ctx.id;
        (* lint: alloc=slots -- one arena per (context, domain) miss *)
        table.slots.(slot) <- Arena.create ~cap:ctx.cap;
        slot
    | slot -> slot
  in
  table.stamps.(slot) <- table.clock;
  table.slots.(slot)

let arenas_held () =
  Array.fold_left
    (fun held id -> if id >= 0 then held + 1 else held)
    0 (Domain.DLS.get arena_tables).ids
let banded_total ctx = Atomic.get ctx.banded_total

(* Process-wide bounded MRU cache of contexts, keyed on the switch
   dimensions and the resolved knobs.  A context owns two
   (cap+1)x(cap+1) weight grids (~150 MB at cap 3072) plus the
   per-domain arenas whose free lists hold every recycled node — so
   repeated default-knob builds of the same switch shape must share one
   context, both to avoid rebuilding the grids and so that lattices
   recycled when a serve cache evicts a tree actually reach the next
   build of that shape.  Env knobs are resolved per call, so changing
   CROSSBAR_COMBINE_THRESHOLD or CROSSBAR_DOMAINS yields a distinct
   key (and a fresh context), exactly as before. *)
let shared_context_limit = 8

let shared_context_lock = Mutex.create ()

let shared_contexts : ((int * int * int * int) * context) list Atomic.t =
  Atomic.make []

let rec cache_take entries n =
  match entries with
  | [] -> []
  | _ when n <= 0 -> []
  | e :: rest -> e :: cache_take rest (n - 1)

let shared_context ~inputs ~outputs =
  Mutex.lock shared_context_lock;
  match
    let band_threshold =
      match env_knob "CROSSBAR_COMBINE_THRESHOLD" with
      | Some t -> t
      | None -> default_band_threshold
    in
    let band_domains = Domains.recommended () in
    let key = (inputs, outputs, band_threshold, band_domains) in
    let entries = Atomic.get shared_contexts in
    match List.assoc_opt key entries with
    | Some ctx ->
        (* Move to front so the working set stays resident. *)
        Atomic.set shared_contexts
          ((key, ctx) :: List.filter (fun (k, _) -> k <> key) entries);
        ctx
    | None ->
        let ctx = context_of ~inputs ~outputs () in
        Atomic.set shared_contexts
          ((key, ctx) :: cache_take entries (shared_context_limit - 1));
        ctx
  with
  | ctx ->
      Mutex.unlock shared_context_lock;
      ctx
  | exception e ->
      Mutex.unlock shared_context_lock;
      raise e

let unit_profile cap =
  let l = Lattice.create ~capacity:cap () in
  Lattice.set l 0 1.;
  l

(* Tilted per-class sequence via the chain
     v_k = step_k (C(u - a) + theta v_{k-1}),   C(u) = rho v_k / k
   at u = k a, with step_k = P(N1-(k-1)a, a) P(N2-(k-1)a, a) carrying
   the corner tilt along so magnitudes track G rather than h alone.
   The profile comes from the current domain's arena, so a steady-state
   update loop rebuilds leaves into recycled storage. *)
let class_factor ctx model r =
  let a = Model.bandwidth model r in
  let rho = Model.rho model r in
  let theta = Model.beta_over_mu model r in
  let seq = Arena.acquire (arena ctx) ~cap:ctx.cap ~stride:a in
  Lattice.set seq 0 1.;
  (* lint: alloc=v -- one chain cell per class factor, O(R) per solve *)
  let v = ref 0. in
  for k = 1 to ctx.cap / a do
    let u = k * a in
    let step =
      Special.permutations (ctx.n1 - ((k - 1) * a)) a
      *. Special.permutations (ctx.n2 - ((k - 1) * a)) a
    in
    v := step *. (Lattice.get seq (u - a) +. (theta *. !v));
    let value = rho *. !v /. float_of_int k in
    if not (Float.is_finite value && Float.is_finite !v) then
      failwith
        "Convolution.solve: overflow within a single recurrence step; \
         use Mva.solve for this parameter regime";
    Lattice.set seq u value;
    if Float.max (Float.abs value) (Float.abs !v) > Lattice.rescale_threshold
    then begin
      Lattice.rescale seq;
      v := !v *. Lattice.rescale_factor
    end
  done;
  seq

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Virtual pre-scaling shared by [combine] and the marginal sweep: how
   many rescale chunks to borrow from each operand so that the largest
   product of entries stays representable.  The counts land in the
   arena's [ka]/[kb] fields and are credited back to the result's scale
   (or cancel in a normalised marginal). *)
let prechunk (arena : Arena.t) a b =
  arena.ka <- 0;
  arena.kb <- 0;
  (* lint: alloc=ma,mb -- two scratch cells per prechunk *)
  let ma = ref (Lattice.max_abs a) and mb = ref (Lattice.max_abs b) in
  while !ma *. !mb > Lattice.rescale_threshold do
    if !ma >= !mb then begin
      arena.ka <- arena.ka + 1;
      ma := !ma *. Lattice.rescale_factor
    end
    else begin
      arena.kb <- arena.kb + 1;
      mb := !mb *. Lattice.rescale_factor
    end
  done

(* Copies [src] into the scratch profile [dst] with [k] rescale chunks
   applied per entry — the same multiply-one-chunk-at-a-time sequence
   the reference combine performs per term, done once per operand so the
   kernel reads plain doubles.  Exact: storing and reloading a double is
   the identity. *)
let load_chunked dst src k =
  for u = 0 to Lattice.capacity src do
    Lattice.unsafe_set dst u (Lattice.apply_chunks (Lattice.unsafe_get src u) k)
  done

(* Dense kernel (both strides 1): every (u, v) pair contributes, so the
   stride test and its integer division disappear from the inner loop.
   Blocked over (output, v) tiles of edge [tile] so the grid rows
   the inner loop touches stay cache-resident; each output [total]
   still accumulates its terms in strictly increasing [v] order — the
   v-blocks are visited in ascending order and the partial sum is parked
   in the output cell between blocks — so the floating-point addition
   sequence per output is exactly the reference kernel's. *)
let kernel_dense ctx left right result lo hi =
  let w1 = ctx.w1 and w2 = ctx.w2 in
  (* lint: alloc=t0,v0,sum -- three scratch cells for the whole kernel *)
  let t0 = ref lo and v0 = ref 0 and sum = ref 0. in
  while !t0 <= hi do
    let t1 = min hi (!t0 + tile - 1) in
    for total = !t0 to t1 do
      Lattice.unsafe_set result total 0.
    done;
    v0 := 0;
    while !v0 <= t1 do
      let v1 = !v0 + tile - 1 in
      for total = max !t0 !v0 to t1 do
        sum := Lattice.unsafe_get result total;
        let vmax = min v1 total in
        for v = !v0 to vmax do
          let u = total - v in
          sum :=
            !sum
            +. (Lattice.unsafe_get left u *. Lattice.Grid.unsafe_get w1 u v)
               *. (Lattice.unsafe_get right v *. Lattice.Grid.unsafe_get w2 u v)
        done;
        Lattice.unsafe_set result total !sum
      done;
      v0 := !v0 + tile
    done;
    t0 := !t0 + tile
  done

(* Strided kernel: identical iteration to the reference combine ([v]
   ascending by [sb], [u mod sa] test), with unchecked accessors and
   pre-chunked operands. *)
let kernel_strided ctx left right ~sa ~sb result lo hi =
  let w1 = ctx.w1 and w2 = ctx.w2 in
  (* lint: alloc=sum,v -- two scratch cells for the whole kernel *)
  let sum = ref 0. and v = ref 0 in
  for total = lo to hi do
    sum := 0.;
    v := 0;
    while !v <= total do
      let u = total - !v in
      if u mod sa = 0 then
        sum :=
          !sum
          +. (Lattice.unsafe_get left u *. Lattice.Grid.unsafe_get w1 u !v)
             *. (Lattice.unsafe_get right !v *. Lattice.Grid.unsafe_get w2 u !v);
      v := !v + sb
    done;
    Lattice.unsafe_set result total !sum
  done

let run_kernel ctx left right ~sa ~sb result lo hi =
  if sa = 1 && sb = 1 then kernel_dense ctx left right result lo hi
  else kernel_strided ctx left right ~sa ~sb result lo hi

(* Deterministic band boundaries.  The kernel's cost at output [total]
   is proportional to [total + 1] (the length of its v-sum), so an
   even split of output *indices* would give the last band several
   times the work of the first.  Splitting the cumulative triangular
   work — boundary [i] at the output where i/bands of the total
   term count lies below — balances the bands: for 2 bands the split
   lands near cap/sqrt(2), not cap/2.  Pure arithmetic on (cap, bands)
   — never on scheduling — so banded results are a function of the
   operands alone. *)
let band_lo cap bands i =
  if i <= 0 then 0
  else if i >= bands then cap + 1
  else
    let n = float_of_int (cap + 1) in
    let lo =
      int_of_float (n *. sqrt (float_of_int i /. float_of_int bands))
    in
    if lo > cap + 1 then cap + 1 else lo

(* Splits one large combine's output lattice into [band_domains] row
   bands dispatched through the persistent {!Band_pool} (band 0 runs on
   the calling domain).  Each band writes a disjoint output range of
   [result]'s Bigarray (GC-opaque, so domains share it without tearing
   the runtime) and only reads the operands and grids; every output
   index is computed by exactly one band with the same per-output term
   order as the sequential kernel, so the result is bit-identical
   however many domains run.  [counter] is the solve-local banded
   counter of the build/update in flight (contexts are shared
   process-wide, so the context's own running total cannot attribute
   banded combines to one solve). *)
let combine_banded ctx counter left right ~sa ~sb result =
  let bands = ctx.band_domains in
  (* Bands write disjoint output rows; the operands, grids and ratio
     table are read-only during the kernel.  One band thunk per banded
     combine.  (A directive covers its own line and the next only.) *)
  (* lint: guarded=ctx,left,right,result alloc=closure -- see above *)
  Band_pool.run ~bands (fun i ->
      let lo = band_lo ctx.cap bands i in
      let hi = band_lo ctx.cap bands (i + 1) - 1 in
      if lo <= hi then run_kernel ctx left right ~sa ~sb result lo hi);
  Atomic.incr ctx.banded_total;
  if counter != ctx.banded_total then Atomic.incr counter

(* Tilted convolution (A * B)(u+v) = sum A(u) B(v) w1(u,v) w2(u,v).
   Never mutates its operands — tree nodes are shared across re-solves —
   so any pre-scaling needed to keep products representable is applied
   to scratch copies in the per-domain arena (or skipped entirely when
   no chunks are borrowed, the common case); the borrowed chunks are
   credited back to the result's scale.  The summation order (increasing
   v) is fixed per output, so recombining the same operands is
   bit-identical no matter which solve path — sequential or banded —
   runs.  The result lattice comes from the arena's free list when
   recycled nodes are available, so a warmed-up update loop allocates
   nothing on the major heap.  [combine_into] threads the
   solve-local banded counter; the public [combine] attributes banded
   combines to the context's running total only. *)
let combine_into ctx counter a b =
  let sa = Lattice.stride a and sb = Lattice.stride b in
  let arena = arena ctx in
  prechunk arena a b;
  let ka = arena.Arena.ka and kb = arena.Arena.kb in
  let left =
    if ka = 0 then a
    else begin
      load_chunked arena.Arena.left a ka;
      arena.Arena.left
    end
  in
  let right =
    if kb = 0 then b
    else begin
      load_chunked arena.Arena.right b kb;
      arena.Arena.right
    end
  in
  let result = Arena.acquire arena ~cap:ctx.cap ~stride:(gcd sa sb) in
  if ctx.cap >= ctx.band_threshold && ctx.band_domains > 1 then
    combine_banded ctx counter left right ~sa ~sb result
  else run_kernel ctx left right ~sa ~sb result 0 ctx.cap;
  Lattice.add_scale result (Lattice.scale a + Lattice.scale b + ka + kb);
  Lattice.normalize result;
  result

let combine ctx a b = combine_into ctx ctx.banded_total a b

(* The pre-kernel reference combine, kept verbatim as the bit-identity
   oracle for the tiled and banded kernels (test_kernel): checked
   accessors, per-term chunk application, no arena, no tiling, no bands.
   Unreachable from the hot roots, so the allocation sanctions of the
   kernel path do not apply here. *)
let combine_naive ctx a b =
  let cap = ctx.cap in
  let sa = Lattice.stride a and sb = Lattice.stride b in
  let result = Lattice.create ~stride:(gcd sa sb) ~capacity:cap () in
  let ka = ref 0 and kb = ref 0 in
  let ma = ref (Lattice.max_abs a) and mb = ref (Lattice.max_abs b) in
  while !ma *. !mb > Lattice.rescale_threshold do
    if !ma >= !mb then begin
      incr ka;
      ma := !ma *. Lattice.rescale_factor
    end
    else begin
      incr kb;
      mb := !mb *. Lattice.rescale_factor
    end
  done;
  let sum = ref 0. and v = ref 0 in
  for total = 0 to cap do
    sum := 0.;
    v := 0;
    while !v <= total do
      let u = total - !v in
      if u mod sa = 0 then begin
        (* Group each operand with its own weight: the weights lie in
           (0, 1], so neither partial product can overflow, and their
           product w1*w2 is never formed alone (it can underflow). *)
        let left = Lattice.apply_chunks (Lattice.get a u) !ka in
        let right = Lattice.apply_chunks (Lattice.get b !v) !kb in
        sum :=
          !sum
          +. (left *. Lattice.Grid.get ctx.w1 u !v)
             *. (right *. Lattice.Grid.get ctx.w2 u !v)
      end;
      v := !v + sb
    done;
    Lattice.set result total !sum
  done;
  Lattice.add_scale result (Lattice.scale a + Lattice.scale b + !ka + !kb);
  Lattice.normalize result;
  result

(* Physical membership of [l] in [arr] from index [i] — the recycling
   guard of the leave-one-out sweep. *)
let rec lattice_memq l arr i =
  if i >= Array.length arr then false
  else arr.(i) == l || lattice_memq l arr (i + 1)

let rec release_unreturned arena returned fresh =
  match fresh with
  | [] -> ()
  | l :: rest ->
      if not (lattice_memq l returned 0) then Arena.release arena l;
      release_unreturned arena returned rest

module Factor_tree = struct
  (* [levels.(0)] holds the tilted leaves C_1 .. C_R in class order;
     [levels.(k+1).(j)] is [combine levels.(k).(2j) levels.(k).(2j+1)],
     except that a trailing odd node is carried up by physical sharing
     (no dummy combine against the unit profile, so a solve costs
     exactly R-1 combines).  The last level is [| H |].  A model with
     zero classes stores the unit profile as its only node. *)
  type nonrec t = {
    model : Model.t;
    ctx : context;
    levels : Lattice.t array array;
    combines : int; (* combines performed by the build/update that made [t] *)
    banded : int; (* how many of those ran the banded parallel kernel *)
  }

  let build_levels ctx counter leaves =
    let combines = ref 0 in
    let acc = ref [ leaves ] in
    let current = ref leaves in
    while Array.length !current > 1 do
      let level = !current in
      let n = Array.length level in
      let next =
        Array.init
          ((n + 1) / 2)
          (fun j ->
            if (2 * j) + 1 < n then
              combine_into ctx counter level.(2 * j) level.((2 * j) + 1)
            else level.(2 * j))
      in
      combines := !combines + (n / 2);
      acc := next :: !acc;
      current := next
    done;
    (Array.of_list (List.rev !acc), !combines)

  let build model =
    let ctx =
      shared_context ~inputs:(Model.inputs model) ~outputs:(Model.outputs model)
    in
    (* Solve-local banded counter: the shared context's running total
       spans every build that ever used it, so per-tree attribution —
       which the serve replay byte-identity gate depends on — needs its
       own counter. *)
    let counter = Atomic.make 0 in
    let num = Model.num_classes model in
    let leaves =
      if num = 0 then [| unit_profile ctx.cap |]
      else Array.init num (fun r -> class_factor ctx model r)
    in
    let levels, combines = build_levels ctx counter leaves in
    { model; ctx; levels; combines; banded = Atomic.get counter }

  let model t = t.model
  let num_classes t = Model.num_classes t.model
  let combines t = t.combines
  let banded t = t.banded
  let context t = t.ctx
  let depth t = Array.length t.levels - 1

  let root t =
    let top = t.levels.(Array.length t.levels - 1) in
    top.(0)

  let leaf t r =
    if r < 0 || r >= num_classes t then
      invalid_arg "Convolution.Factor_tree.leaf: class index out of range";
    t.levels.(0).(r)

  let parent_index i = i / 2

  (* The leaf, per-parents and per-level walks of [update] are top-level
     recursions threading their counters as arguments, so the hot update
     path carries no closures or reference cells of its own. *)
  let rec refresh_leaves ctx ~recycle arena model leaves changed =
    match changed with
    | [] -> ()
    | r :: rest ->
        let old = leaves.(r) in
        leaves.(r) <- class_factor ctx model r;
        if recycle then Arena.release arena old;
        refresh_leaves ctx ~recycle arena model leaves rest

  let rec recombine_parents ctx counter ~recycle arena levels k parents
      combines =
    match parents with
    | [] -> combines
    | j :: rest ->
        let level = levels.(k) in
        let n = Array.length level in
        let combines =
          if (2 * j) + 1 < n then begin
            (* A two-child position always holds a combine result of its
               own — carries only land on trailing odd positions — so
               the node replaced here is referenced nowhere else in the
               new tree and may be recycled. *)
            let old = levels.(k + 1).(j) in
            levels.(k + 1).(j) <-
              combine_into ctx counter level.(2 * j) level.((2 * j) + 1);
            if recycle then Arena.release arena old;
            combines + 1
          end
          else begin
            (* Trailing carry: share the (new) child upward; the old
               carried node is the old child, recycled — if at all — at
               its own position. *)
            levels.(k + 1).(j) <- level.(2 * j);
            combines
          end
        in
        recombine_parents ctx counter ~recycle arena levels k rest combines

  let rec update_levels ctx counter ~recycle arena levels k frontier combines =
    if k >= Array.length levels - 1 then combines
    else begin
      let parents = List.sort_uniq compare (List.map parent_index frontier) in
      let combines =
        recombine_parents ctx counter ~recycle arena levels k parents combines
      in
      update_levels ctx counter ~recycle arena levels (k + 1) parents combines
    end

  (* Recombines only the root paths of the changed leaves.  Untouched
     nodes are shared physically with [t], and [combine] is a
     deterministic function of its operands, so the updated tree is
     bit-identical to [build model] at every node.  With [~recycle:true]
     the caller promises to drop [t] entirely: every node the update
     replaces — changed leaves and the recombined internal nodes above
     them — is handed to the arena free list, where the next acquire
     resets it, corrupting [t] (but never the updated tree, which shares
     only untouched nodes). *)
  let update ?(recycle = false) t model =
    if
      Model.inputs model <> Model.inputs t.model
      || Model.outputs model <> Model.outputs t.model
    then invalid_arg "Convolution.Factor_tree.update: switch dimensions differ";
    if Model.num_classes model <> Model.num_classes t.model then
      invalid_arg "Convolution.Factor_tree.update: class count differs";
    match Model.class_delta t.model model with
    | None -> assert false (* dimensions and class count checked above *)
    | Some [] ->
        (* lint: alloc=record -- unchanged classes: one record, no combines *)
        { t with model; combines = 0; banded = 0 }
    | Some changed ->
        let arena = arena t.ctx in
        (* lint: alloc=counter -- solve-local banded counter, one per update *)
        let counter = Atomic.make 0 in
        (* lint: alloc=levels -- spine copy, O(log R); nodes stay shared *)
        let levels = Array.map Array.copy t.levels in
        refresh_leaves t.ctx ~recycle arena model levels.(0) changed;
        let combines =
          update_levels t.ctx counter ~recycle arena levels 0 changed 0
        in
        (* lint: alloc=record -- the updated tree value itself *)
        {
          model;
          ctx = t.ctx;
          levels;
          combines;
          banded = Atomic.get counter;
        }

  (* Prefix x suffix sweep: walking the tree top-down with
       comp(root)        = (empty product)
       comp(child)       = comp(parent) * (sibling of child)
     gives at each leaf r the complement H_{-r} = prod_{s<>r} C_s in
     2(R-1) - 2 combines total.  The empty product is represented as
     [None] (combining with the unit profile is a bitwise no-op but
     costs a full O(cap^2) pass), so the root's children receive their
     sibling's value directly, shared physically.  Combines performed
     by the sweep that do not survive into the returned row are
     unreachable afterwards and go back to the arena free list. *)
  let leave_one_out t =
    let num = num_classes t in
    if num = 0 then [||]
    else if num = 1 then
      (* lint: alloc=array -- the degenerate one-class result *)
      [| unit_profile t.ctx.cap |]
    else begin
      (* lint: alloc=comp,fresh,array -- working row + fresh-node ledger *)
      let comp = ref [| None |] and fresh = ref [] in
      for k = Array.length t.levels - 1 downto 1 do
        let children = t.levels.(k - 1) in
        let n = Array.length children in
        let parent_comp = !comp in
        comp :=
          (* lint: alloc=array,closure -- next complement row, one per level *)
          Array.init n (fun i ->
              let above = parent_comp.(i / 2) in
              let sibling =
                if i land 1 = 0 then
                  if i + 1 < n then Some children.(i + 1) else None
                else Some children.(i - 1)
              in
              match above with
              | None -> sibling
              | Some c -> (
                  match sibling with
                  | None -> above
                  | Some s ->
                      let combined = combine t.ctx c s in
                      fresh := combined :: !fresh;
                      Some combined))
      done;
      let result =
        (* lint: alloc=result -- the R complements, the sweep's result *)
        Array.map (* lint: alloc=closure -- unwrap projection, once per sweep *)
          (function Some l -> l | None -> unit_profile t.ctx.cap)
          !comp
      in
      release_unreturned (arena t.ctx) result !fresh;
      result
    end
end

type t = {
  model : Model.t;
  ctx : context;
  tree : Factor_tree.t;
  diag : Lattice.t; (* diag.(j) = scaled G(N1 - j, N2 - j) *)
  log_omega : float; (* stored H = true H * exp log_omega *)
  measures : Measures.t;
}

(* One shared diagonal pass serves every class's measures:
     diag.(j) = scaled G(N1-j, N2-j) = sum_u H(u) ratio_j(u),
   with ratio_j(u) read from the context's precomputed table: one
   multiply-add per term, summed in increasing [u]. *)
let diagonal ctx h =
  (* From the arena free list: a recycled tree's diagonal is re-acquired
     by the next solve of the same shape. *)
  let diag =
    Arena.acquire (arena ctx) ~cap:ctx.cap ~stride:1
  in
  Lattice.add_scale diag (Lattice.scale h);
  let cap = ctx.cap and ratios = ctx.ratios in
  for j = 0 to cap do
    let row = ratio_row cap j in
    let sum = ref (Lattice.unsafe_get h 0) in
    for u = 1 to cap - j do
      let ratio = Bigarray.Array1.unsafe_get ratios (row + u) in
      sum := !sum +. (Lattice.unsafe_get h u *. ratio)
    done;
    Lattice.unsafe_set diag j !sum
  done;
  diag

(* Unified concurrency chain at reservation depth [d]: the diagonal entry
   diag.(d + j) is the scaled G(N1-d-j, N2-d-j), i.e. the normalisation
   of the same model with [d] ports removed from each side — reduced
   models preserve the per-pair parameters (see Revenue.reduced_model),
   so one diagonal serves every depth.  The chain walks from the deepest
   feasible point up to (N1-d, N2-d), applying
   E_r(p) = P(n1-d,a) P(n2-d,a) B_r(p) (rho_r + (beta_r/mu_r) E_r(p - a I)).
   For Poisson classes the recursion degenerates to
   E_r = rho_r P(N1-d,a) P(N2-d,a) B_r.  [depth = 0] is the paper's
   Step 3 measure; deeper values feed the batched shadow costs. *)
let concurrency_at_depth model diag ~depth r =
  let a = Model.bandwidth model r in
  let rho = Model.rho model r in
  let b_over_mu = Model.beta_over_mu model r in
  let n1 = Model.inputs model - depth and n2 = Model.outputs model - depth in
  let cap = min n1 n2 in
  let budget = if cap < 0 then -1 else cap in
  let e = ref 0. in
  for m = budget / a downto 0 do
    let j = depth + (m * a) in
    let here = Lattice.get diag j in
    let down = if (m + 1) * a > budget then 0. else Lattice.get diag (j + a) in
    if here > 0. && Float.is_finite here && Float.is_finite down then begin
      let non_blocking = down /. here in
      e :=
        Special.permutations (n1 - (m * a)) a
        *. Special.permutations (n2 - (m * a)) a
        *. non_blocking
        *. (rho +. (b_over_mu *. !e))
    end
    else
      (* A rescale flushed this deep entry; its contribution to the chain
         is damped by (beta/mu)^m and is negligible at this depth. *)
      e := 0.
  done;
  !e

let of_tree (tree : Factor_tree.t) =
  let model = tree.Factor_tree.model in
  let ctx = tree.Factor_tree.ctx in
  let h = Factor_tree.root tree in
  let diag = diagonal ctx h in
  let num_classes = Model.num_classes model in
  let corner = Lattice.get diag 0 in
  let non_blocking =
    Array.init num_classes (fun r ->
        let a = Model.bandwidth model r in
        if Model.inputs model < a || Model.outputs model < a then 0.
        else Lattice.get diag a /. corner)
  in
  let concurrency =
    Array.init num_classes (fun r ->
        concurrency_at_depth model diag ~depth:0 r)
  in
  let measures = Measures.of_concurrencies ~model ~non_blocking ~concurrency in
  { model; ctx; tree; diag; log_omega = Lattice.log_scale h; measures }

let solve model = of_tree (Factor_tree.build model)

let solve_delta ?(recycle = false) ~previous model =
  let tree = Factor_tree.update ~recycle previous.tree model in
  (* The caller promised to drop [previous] entirely, and the fresh
     diagonal below is computed from the updated tree, so the previous
     solve's diagonal can seed the free list first. *)
  if recycle then
    Arena.release (arena previous.ctx) previous.diag;
  of_tree tree

(* Returns every lattice a dropped solve owns to the current domain's
   free list for this context: all leaves, every internal node that is a
   combine result of its own (a trailing odd node is a physical alias of
   its child, carried upward, so releasing it once at its home position
   is both necessary and sufficient), and the diagonal.  The caller must
   guarantee nothing else references [t] — e.g. a serve registry entry
   evicted once the batch that evicted it has fully drained. *)
let recycle t =
  let arena = arena t.ctx in
  let levels = t.tree.Factor_tree.levels in
  let leaves = levels.(0) in
  for i = 0 to Array.length leaves - 1 do
    Arena.release arena leaves.(i)
  done;
  for k = 1 to Array.length levels - 1 do
    let children = Array.length levels.(k - 1) in
    let level = levels.(k) in
    for j = 0 to Array.length level - 1 do
      if (2 * j) + 1 <= children - 1 then Arena.release arena level.(j)
    done
  done;
  Arena.release arena t.diag

let model t = t.model
let measures t = t.measures
let tree t = t.tree
let combine_count t = t.tree.Factor_tree.combines
let banded_combine_count t = t.tree.Factor_tree.banded

let concurrencies_at_depth t ~depth =
  if depth < 0 || depth > t.ctx.cap then
    invalid_arg "Convolution.concurrencies_at_depth: depth outside diagonal";
  Array.init (Model.num_classes t.model) (fun r ->
      concurrency_at_depth t.model t.diag ~depth r)

(* Marginal weights for one class against its complement product: with
   T = H_{-r} and C = C_r,
     p(k_r = m) ∝ C(m a) sum_w T(w) w1(m a, w) w2(m a, w),
   the same term grouping as [combine] restricted to one output row per
   [m].  All scale exponents (leaf, complement, borrowed chunks) are
   constant across [m], so they cancel in the normalisation. *)
let marginal_weights ctx own comp =
  let cap = ctx.cap in
  let a = Lattice.stride own in
  let sc = Lattice.stride comp in
  let arena = arena ctx in
  prechunk arena own comp;
  let ka = arena.Arena.ka and kb = arena.Arena.kb in
  Array.init ((cap / a) + 1) (fun m ->
      let u = m * a in
      let own_u = Lattice.apply_chunks (Lattice.get own u) ka in
      let sum = ref 0. in
      let v = ref 0 in
      while !v <= cap - u do
        let other = Lattice.apply_chunks (Lattice.get comp !v) kb in
        sum :=
          !sum
          +. (own_u *. Lattice.Grid.get ctx.w1 u !v)
             *. (other *. Lattice.Grid.get ctx.w2 u !v);
        v := !v + sc
      done;
      !sum)

let per_class_distributions t =
  let complements = Factor_tree.leave_one_out t.tree in
  Array.mapi
    (fun r comp ->
      let own = Factor_tree.leaf t.tree r in
      let weights = marginal_weights t.ctx own comp in
      Measures.distribution_of_weights ~model:t.model ~class_index:r ~weights)
    complements

let log_g t ~inputs ~outputs =
  if
    inputs < 0 || outputs < 0
    || inputs > Model.inputs t.model
    || outputs > Model.outputs t.model
  then invalid_arg "Convolution.log_g: outside lattice";
  let h = Factor_tree.root t.tree in
  let sum = ref (Lattice.get h 0) in
  let ratio = ref 1. in
  for u = 1 to min inputs outputs do
    let i = u - 1 in
    ratio :=
      !ratio
      *. (float_of_int (inputs - i) /. float_of_int (t.ctx.n1 - i))
      *. (float_of_int (outputs - i) /. float_of_int (t.ctx.n2 - i));
    sum := !sum +. (Lattice.get h u *. !ratio)
  done;
  (* G(n1, n2) >= 1 for every feasible lattice point (the empty state
     always contributes), so a non-positive scaled value can only mean
     dynamic rescaling flushed the contributing entries: the point sits
     so many orders of magnitude below the corner that [G * omega]
     underflowed.  Propagating [log 0. = -inf] here silently corrupts
     downstream blocking and revenue arithmetic, so refuse instead. *)
  if not (!sum > 0.) then
    failwith
      (Printf.sprintf
         "Convolution.log_g: lattice entry (%d, %d) was flushed to zero by \
          %d dynamic rescale(s); it lies too far below G(%d, %d) to \
          represent.  Solve a model of that size directly, or use \
          Mva.log_normalization"
         inputs outputs (Lattice.scale h) (Model.inputs t.model)
         (Model.outputs t.model));
  Logspace.log_checked !sum -. t.log_omega

let log_normalization t =
  log_g t ~inputs:(Model.inputs t.model) ~outputs:(Model.outputs t.model)

let rescale_count t = Lattice.scale t.diag
