(** Algorithm 1: the convolution solution of the normalisation function
    (paper Section 5, with the dynamic scaling of Section 6), in
    class-factored form over a balanced combine tree.

    The paper's recurrence acts on [Q(N) = G(N)/(N1! N2!)].  Matching
    coefficients shows [G] factors per class:
    [G(n1,n2) = sum_u H(u) P(n1,u) P(n2,u)] with
    [H = h_1 * ... * h_R] a one-dimensional convolution over used
    bandwidth of per-class generating sequences (DESIGN.md,
    "Class-factored convolution").  Each factor is held corner-tilted
    in a flat {!Lattice} profile with its own Section 6 rescale
    exponent.  The factors are multiplied along one fixed shape — the
    balanced binary {!Factor_tree} — which {e is} the solver: a full
    solve combines bottom-up ([R - 1] combines), a re-solve after
    changing any subset of classes recombines only the changed leaves'
    root paths ([O(#changed log R)] combines), and both walk identical
    operand pairs in identical order, hence bit-identical results on
    every measure and [log G].

    The pairwise combine runs as a cache-blocked kernel over the
    {!Lattice} Bigarrays with per-domain scratch arenas ({!Arena}), so a
    warmed-up re-solve loop performs no major-heap allocation; above a
    capacity threshold a single combine's output is split into
    deterministic row bands computed by parallel domains, bit-identical
    to the sequential kernel (DESIGN.md, "Combine kernels").

    Complexity: [O(cap^2 R)] time for a full solve with
    [cap = min N1 N2], [O(cap^2 #changed log R)] for a re-solve via
    {!solve_delta}, [O(cap R)] space (the tree holds [2R - 1] nodes). *)

(** Per-domain scratch for the combine hot path: two operand-sized
    profiles for chunk-scaled copies, the chunk counts of the current
    prechunk, and a free list of result-sized profiles recycled by
    [Factor_tree.update ~recycle] and the leave-one-out sweep.  Each
    domain keeps its own arenas, one per context (see {!arena}), so
    combines issued concurrently — by the banded kernel's own domains or
    by solves on [Engine.Pool] workers — never share scratch. *)
module Arena : sig
  type t

  val create : cap:int -> t
  (** Fresh arena for profiles of capacity [cap], with an empty free
      list. *)

  val acquire : t -> cap:int -> stride:int -> Lattice.t
  (** Pops a recycled profile ({!Lattice.reset} to the all-zero state,
      indistinguishable from a fresh create) or creates one of capacity
      [cap]. *)

  val release : t -> Lattice.t -> unit
  (** Hands a profile back for reuse.  Ownership is never inferred: the
      caller must guarantee no live structure still references it. *)

  val created : t -> int
  (** Profiles this arena has created (misses). *)

  val reused : t -> int
  (** Acquisitions served from the free list (hits).  In a warmed-up
      [update ~recycle:true] loop this is the only counter that moves. *)

  val pooled : t -> int
  (** Profiles currently on the free list. *)
end

type context
(** Combine environment for one switch size: the precomputed weight
    grids, banding threshold and domain count, the identity its
    per-domain {!Arena}s are kept under and the banded-combine counter.
    {!Factor_tree.build} resolves its context through a bounded
    process-wide cache keyed on the dimensions and resolved knobs, so
    repeated solves of one switch shape share the grids and — through
    the shared arenas — each other's recycled profiles.  {!context_of}
    always builds a fresh, unshared context. *)

val default_combine_threshold : int
(** The built-in banding threshold (256) used when neither the
    [combine_threshold] parameter nor [CROSSBAR_COMBINE_THRESHOLD] is
    given — the capacity where a dense combine's cost overtakes a
    {!Band_pool} dispatch on the calibration hardware (DESIGN.md). *)

val context_of :
  ?combine_threshold:int ->
  ?band_domains:int ->
  inputs:int ->
  outputs:int ->
  unit ->
  context
(** [combine_threshold] is the capacity at or above which a single combine
    is banded across domains (default: the [CROSSBAR_COMBINE_THRESHOLD]
    environment variable, else 256 — calibrated against the persistent
    {!Band_pool} dispatch cost, see DESIGN.md); [band_domains] the
    number of bands (default {!Domains.recommended}).  Banding is
    disabled whenever [band_domains = 1].
    @raise Invalid_argument if any knob — parameter or environment
    override — is not [>= 1]; the message names the offending knob and
    its value. *)

val context_capacity : context -> int
(** [min inputs outputs]. *)

val arena : context -> Arena.t
(** The calling domain's arena for this context, created on first use.
    Each domain keeps the arenas of its {!arena_limit} most recently
    used contexts; an older one is dropped with its free list, and the
    next use on that domain starts a fresh arena. *)

val arena_limit : int
(** Most arenas one domain keeps at a time (16: twice the process-wide
    cache of shared contexts), so a long-lived worker domain that meets
    many switch shapes holds scratch for a bounded number of them. *)

val arenas_held : unit -> int
(** Arenas the calling domain currently keeps, at most {!arena_limit}. *)

val banded_total : context -> int
(** Combines this context has run through the banded parallel kernel,
    across all solves and domains. *)

val combine : context -> Lattice.t -> Lattice.t -> Lattice.t
(** The tilted convolution
    [(A * B)(u+v) = sum A(u) B(v) w1(u,v) w2(u,v)], as the solver runs
    it: cache-blocked kernel, unchecked accessors, arena scratch and
    result, banded across domains at or above the context's threshold.
    Operands are never mutated.  Each output accumulates its terms in
    strictly increasing [v], so the result is a bit-identical function
    of the operands regardless of banding or which domain runs it — and
    equal to {!combine_naive} on every operand pair.
    Operand capacities must equal the context's. *)

val combine_naive : context -> Lattice.t -> Lattice.t -> Lattice.t
(** The pre-kernel reference combine — checked accessors, per-term chunk
    application, fresh result, no tiling, no bands — kept as the
    bit-identity oracle for {!combine} in tests.  Never called by the
    solver. *)

(** The balanced combine tree over tilted class factors.  Leaves are the
    per-class profiles [C_r] in class order; each internal node caches
    the tilted convolution of its children together with its rescale
    exponent.  A trailing odd node at any level is carried upward by
    physical sharing, so a build performs exactly [R - 1] combines. *)
module Factor_tree : sig
  type t

  val build : Model.t -> t
  (** Builds all leaves, then one level at a time bottom-up.  The result
      is a pure function of the model alone.
      @raise Failure if a single recurrence step overflows even after
      rescaling (pathological bandwidths); use {!Mva} in that regime. *)

  val update : ?recycle:bool -> t -> Model.t -> t
  (** [update t model] re-solves after {e any} per-class change: leaves
      whose {!Traffic.equal} comparison against [t]'s model differs are
      rebuilt and only their ancestor paths recombined —
      [O(#changed log R)] combines, against unchanged nodes shared
      physically with [t] (which is never mutated).  Bit-identical to
      [build model] at every node, for any subset of changed classes,
      including in the dynamic-rescaling regime.

      [~recycle:true] additionally promises that the caller drops [t]:
      every node the update replaces (changed leaves and the recombined
      internal nodes above them) returns to the calling domain's arena
      free list, so a steady-state update loop allocates nothing on the
      major heap.  The next acquire resets those nodes, corrupting [t] —
      never the returned tree, which shares only untouched nodes.
      Default [false].
      @raise Invalid_argument if the switch dimensions or class count
      differ (no factor state can be shared).
      @raise Failure as {!build}. *)

  val leave_one_out : t -> Lattice.t array
  (** All leave-one-out complements [H_{-r} = prod_{s<>r} C_s] in one
      top-down prefix x suffix sweep of [2(R-1) - 2] combines (see
      docs/THEORY.md): the complement of a node is its parent's
      complement combined with its sibling, and at the leaves the
      complement is exactly [H_{-r}].  Element [r] feeds class [r]'s
      marginal distribution and shadow cost.  Sweep intermediates that
      do not survive into the returned row are recycled through the
      arena. *)

  val root : t -> Lattice.t
  (** The full product [H] (the unit profile for a zero-class model). *)

  val leaf : t -> int -> Lattice.t
  (** The tilted factor [C_r].
      @raise Invalid_argument if the class index is out of range. *)

  val model : t -> Model.t
  val num_classes : t -> int

  val combines : t -> int
  (** Number of pairwise combines performed by the {!build} or {!update}
      that produced this tree ([R - 1] for a build, 0 for an update with
      no changed class). *)

  val banded : t -> int
  (** How many of those combines ran the banded parallel kernel (0 below
      the context threshold — the telemetry [banded_combines]
      counter). *)

  val context : t -> context
  (** The combine context shared by every re-solve of this tree. *)

  val depth : t -> int
  (** Number of combine levels above the leaves ([ceil log2 R]). *)
end

type t
(** A solved model: the factor tree and the measure diagonal. *)

val solve : Model.t -> t
(** Builds the factor tree (see {!Factor_tree.build}) and derives all
    measures from one shared diagonal pass.
    @raise Failure as {!Factor_tree.build}. *)

val solve_delta : ?recycle:bool -> previous:t -> Model.t -> t
(** [solve_delta ~previous model] re-solves [model] through
    {!Factor_tree.update} on [previous]'s tree: any subset of classes
    may change, in any order across successive calls.  Bit-identical to
    [solve model] — same measures, same [log_g] on every lattice point,
    same {!rescale_count}.  [~recycle] is {!Factor_tree.update}'s: with
    [true] the caller promises to drop [previous] entirely — its
    replaced tree nodes {e and its measure diagonal} go back to the
    arena free list (the solved measures, already extracted as floats,
    stay valid).
    @raise Invalid_argument if the switch dimensions or class count
    differ.
    @raise Failure as {!solve}. *)

val recycle : t -> unit
(** Returns every lattice a dropped solve owns — all leaves, every
    internal combine result (trailing-carry aliases are released once,
    at their home position), and the measure diagonal — to the calling
    domain's arena free list for its context.  Contexts are shared
    process-wide per switch shape, so the next build of that shape
    acquires the recycled profiles instead of allocating.  The caller
    must guarantee nothing else references [t]: e.g. the serve registry
    recycles an evicted tree only after the batch that evicted it has
    fully drained. *)

val model : t -> Model.t

val measures : t -> Measures.t
(** Measures from Step 3 of Algorithm 1 (with the corrected [E_r]
    prefactor — see DESIGN.md). *)

val tree : t -> Factor_tree.t
(** The underlying factor tree (shared, never mutated). *)

val combine_count : t -> int
(** {!Factor_tree.combines} of the solve that produced [t] — the
    telemetry [tree_combines] counter. *)

val banded_combine_count : t -> int
(** {!Factor_tree.banded} of the solve that produced [t] — the telemetry
    [banded_combines] counter. *)

val per_class_distributions : t -> Measures.distribution array
(** The full marginal occupancy distribution [p(k_r = j)] of every
    class, batched from one {!Factor_tree.leave_one_out} sweep: class
    [r]'s weights are [C_r(j a_r) . H_{-r}] contracted through the
    corner weight grids, normalised over [j].  [O(R)] combines total
    instead of [R] independent solves; agrees with
    {!Occupancy.class_distribution} to rounding.
    @raise Failure if dynamic rescaling flushed an entire marginal (the
    distribution lies too far below the corner to represent). *)

val concurrencies_at_depth : t -> depth:int -> float array
(** [concurrencies_at_depth t ~depth] evaluates every class's expected
    concurrency [E_r] on the reduced switch [(N1 - depth) x (N2 - depth)]
    {e from the already-solved diagonal}: reduced models preserve the
    per-pair BPP parameters, so [G_reduced(j) = diag.(depth + j)] and no
    re-solve is needed.  [depth = 0] reproduces the measures of {!solve}
    bit for bit; positive depths power {!Revenue.shadow_costs}, all [R]
    of them from this single solve.
    @raise Invalid_argument if [depth] lies outside [0 .. min N1 N2]. *)

val log_g : t -> inputs:int -> outputs:int -> float
(** [log G(n1, n2)], evaluated from the factored form in [O(cap)].
    Entries near the corner — the ones measures use — are always exact.
    @raise Invalid_argument outside the lattice.
    @raise Failure if dynamic rescaling flushed the requested entry to
    zero (it lies hundreds of orders of magnitude below the corner); the
    sentinel [neg_infinity] is never returned, so downstream arithmetic
    cannot be corrupted silently. *)

val log_normalization : t -> float
(** [log G(N1, N2)]. *)

val rescale_count : t -> int
(** Number of adaptive rescale chunks folded into [H] across all partial
    products (0 for all workloads in the paper). *)
