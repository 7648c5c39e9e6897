(** Orchestrates the typed (stage-two) lint pass.

    For every implementation file stage one discovered under the given
    paths, looks up its [.cmt] artifact, analyses it through
    {!Typed_rules}, then runs the global passes over the full summary
    set: the {!Capture} escape fixpoint (R10 findings plus locked-lambda
    facts), the {!Callgraph} R9 reachability consuming those facts, and
    the {!Effects} stage (R12 raise fixpoint, R13 domain resolution) —
    and filters everything through the shared suppression directives.
    The R8 scope ([pool_scope] in the config) is resolved here, and only
    when R8 is enabled.  A run is a plain function of the sources,
    the artifacts and the config: nothing persists between runs. *)

type stats = {
  files : int;  (** implementation files considered *)
  missing_cmt : string list;
      (** sources with no artifact in the index — stale build tree *)
  errors : (string * string) list;
      (** [(path, reason)] for artifacts that failed to analyse *)
  extract_s : float;
      (** processor seconds in the per-file extraction loop *)
  capture_s : float;  (** processor seconds in the {!Capture} fixpoint *)
  graph_s : float;  (** processor seconds in the {!Callgraph} R9 walk *)
  effects_s : float;  (** processor seconds in the {!Effects} stage *)
  capture_iterations : int;
      (** passes the capture fixpoint took (0 when R9/R10 are off) *)
  raise_iterations : int;
      (** passes the R12 raise fixpoint took (0 when R12 is off) *)
  domain_iterations : int;
      (** passes the R13 domain fixpoint took (0 when R13 is off) *)
}

val run_loaded :
  config:Crossbar_lint.Config.t ->
  cmt_index:Cmt_index.t ->
  cmt_root:string ->
  Crossbar_lint.Driver.loaded ->
  Crossbar_lint.Finding.t list * stats
(** {!run} over a path set stage one already loaded
    ({!Crossbar_lint.Driver.load}), so a run of both stages parses each
    file once. *)

val run :
  config:Crossbar_lint.Config.t ->
  cmt_index:Cmt_index.t ->
  cmt_root:string ->
  string list ->
  Crossbar_lint.Finding.t list * stats
(** Findings are sorted by position and already suppression-filtered;
    [stats] reports the file counts, per-stage timings and fixpoint
    iterations behind them. *)
