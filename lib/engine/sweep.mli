(** Batched parameter sweeps: the paper's whole evaluation is "solve the
    product-form model at many parameter points", and this module is the
    one place that does it — fanning points out across a {!Pool},
    deduplicating repeated models through a {!Cache}, and recording
    {!Telemetry} for every solve.

    Determinism: results come back in point order and each point's
    numbers depend only on the model (the solvers are pure), so a sweep
    with [~domains:1] and [~domains:n] produce bit-identical outcomes.
    Telemetry wall times naturally vary run to run; the measures never
    do. *)

type point = {
  label : string;
  model : Crossbar.Model.t;
  algorithm : Crossbar.Solver.algorithm option;
      (** [None] = {!Crossbar.Solver.recommended} *)
}

val point :
  ?algorithm:Crossbar.Solver.algorithm ->
  ?label:string ->
  Crossbar.Model.t ->
  point
(** [label] defaults to ["N1xN2"]. *)

type outcome = {
  point : point;
  solution : Crossbar.Solver.solution;
  wall_seconds : float;
  from_cache : bool;
  from_incremental : bool;
      (** solved via {!Crossbar.Convolution.solve_delta}, reusing the
          previous chain point's factor tree (identical bits, less
          work) *)
}

val measures : outcome -> Crossbar.Measures.t
val log_normalization : outcome -> float

val run :
  ?domains:int ->
  ?cache:Cache.t ->
  ?telemetry:Telemetry.t ->
  ?incremental:bool ->
  point list ->
  outcome array
(** Solve every point; [run points] returns outcomes in the same order
    as [points].  [domains] defaults to {!Pool.recommended_domains};
    pass an existing [cache] to share memoised solutions across sweeps
    (a fresh private cache is used otherwise).  When [telemetry] is
    given, one record per point is appended in point order after the
    pool run returns, so the record stream is deterministic too.

    [incremental] (default [false]) groups consecutive points that
    share switch dimensions and class count (and resolve to the
    convolution solver) into chains — {e any} subset of classes may
    change between neighbouring points, in any order; each chain point
    after the first re-solves via {!Crossbar.Convolution.solve_delta},
    recombining only the changed leaves' root paths of its
    predecessor's factor tree ([O(#changed log R)] combines instead of
    [R - 1]).  Chains run sequentially; distinct chains still fan out
    across the pool.  Results are bit-identical with and without the
    flag (and for every domain count); only [from_incremental],
    [tree_combines] and wall time change. *)

val solve_model :
  ?cache:Cache.t ->
  ?telemetry:Telemetry.t ->
  ?algorithm:Crossbar.Solver.algorithm ->
  ?label:string ->
  Crossbar.Model.t ->
  Crossbar.Solver.solution
(** One-point convenience used by callers that interleave solves with
    other work but still want caching and telemetry. *)
