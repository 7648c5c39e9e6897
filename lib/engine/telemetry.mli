(** Fixed-size solve telemetry collected by the sweep engine and the
    serve daemon.

    Every solve the engine performs is folded into a constant-size set
    of aggregates: how many solves ran, their total and maximum wall
    time, a log-bucketed wall-time histogram for percentiles, and the
    lattice work, dynamic rescales and factor-tree combines they
    implied.  A separate counter counts requests: every solve is one,
    and a caller whose request did no solve work (a serve read, a failed
    solve, [stats]) counts it with {!record_request} alone.  No
    per-solve record is kept, so a collector's memory does not depend
    on how many solves it has seen.  The aggregates render to
    the JSON schema documented in DESIGN.md ("Telemetry schema"), which
    the serve daemon's [stats] op embeds. *)

type solve = {
  wall_seconds : float;
      (** wall time of this [find_or_solve] call; near zero on hits *)
  lattice_cells : int;
  rescales : int;
  tree_combines : int;
      (** pairwise factor-tree combines the solve performed
          ({!Crossbar.Solver.solution}[.tree_combines]); [0] on cache
          hits and for non-convolution algorithms *)
  banded_combines : int;
      (** how many of those combines ran the banded parallel kernel
          ({!Crossbar.Solver.solution}[.banded_combines]) *)
  from_incremental : bool;
      (** the solve reused factor-tree nodes from the previous sweep
          point ({!Crossbar.Convolution.solve_delta}) *)
}
(** One solve as its caller reports it; {!record} folds it into the
    aggregates and keeps no reference to it. *)

type t

val create : unit -> t

val record : t -> solve -> unit
(** Fold one solve into the aggregates, counting it as a request too
    (domain-safe, O(1), allocates nothing).  A negative [wall_seconds]
    — which a non-monotonic time source could produce — is clamped to
    [0.] first, so totals and percentiles never move backwards; use
    {!Clock} to take wall-time deltas and the clamp never fires. *)

val record_request : t -> unit
(** Count one request that built or updated nothing: it moves the
    request counter only, not [solves] nor any wall-time or work
    aggregate (domain-safe, O(1), allocates nothing). *)

val count : t -> int
(** Solves recorded so far. *)

val requests : t -> int
(** Requests counted so far: every {!record} plus every
    {!record_request}. *)

val total_wall_seconds : t -> float
(** Sum of [wall_seconds] over all recorded solves. *)

val to_json : ?cache:Cache.t -> ?domains:int -> t -> Json.t
(** The collector as one JSON object: aggregate counters, then optional
    cache hit/miss statistics and pool width.  [wall_seconds_max] is
    exact; [wall_seconds_p50]/[_p95] are histogram estimates of the
    nearest-rank percentiles, never below the exact value, at most
    2{^-5} above it for walls in \[2{^-30}, 2{^18}) seconds (and exact
    for zero walls), and never above [wall_seconds_max].  All fields
    derive from a {e single} locked snapshot, so the emitted [solves]
    count, totals and percentiles always describe the same instant even
    while other domains keep recording. *)
