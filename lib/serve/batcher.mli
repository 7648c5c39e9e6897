(** Request batching: the daemon's execution core.

    A batch is the set of requests queued while the previous batch was
    being served.  [execute] groups them by target tree — so a delta's
    single [O(#changed log R)] recombine, and the hot tree it updates,
    serve every query queued behind it instead of each query re-solving
    — and fans the per-tree groups out across an {!Crossbar_engine.Pool}
    (per-tree worker sharding: requests for one tree run sequentially in
    arrival order; distinct trees run concurrently).

    Determinism: responses come back index-aligned with the request
    array, and each group's work depends only on the registry state and
    its own requests, so a batch's responses are bit-identical to
    serving the same requests one at a time — the property test_serve
    and perfbench's serve-admit oracle check byte for byte. *)

type outcome = {
  responses : Crossbar_engine.Json.t array;
      (** element [i] answers request [i] *)
  shutdown : bool;  (** a [shutdown] request was present *)
}

val execute :
  ?domains:int ->
  registry:Registry.t ->
  telemetry:Crossbar_engine.Telemetry.t ->
  Protocol.request array ->
  outcome
(** Serve one batch.  Every request — including failures, [stats] and
    [shutdown] — produces exactly one response and is recorded once in
    [telemetry], with the request's service time on the monotonic clock
    ({!Crossbar_engine.Clock}) as its [wall_seconds].  Solver errors
    ([Invalid_argument], [Failure]) and unknown trees become [ok:false]
    responses, never exceptions: a malformed query must not take the
    daemon down.  [domains] bounds the pool
    (default {!Crossbar_engine.Pool.recommended_domains}).

    Once the pool run has returned — {!Crossbar.Band_pool.run_tasks}
    has collected every band's completion flag, and a band finishes
    only after the last task and every nested band it lent to have, so
    no worker still runs anything of this batch — the registry's capacity-evicted trees are
    drained via {!Registry.recycle_evicted}: the end of a batch is the
    daemon's quiescent point. *)

(** One-batch-in-flight pipelining: a dedicated worker domain runs
    {!execute} while the caller returns to its [select] loop to read and
    group the next batch.  Because [execute] is deterministic given the
    registry state and its request array, pipelined and sequential
    serving produce byte-identical responses — only the overlap of
    socket I/O with solving changes. *)
module Pipeline : sig
  type t

  val start :
    ?domains:int ->
    registry:Registry.t ->
    telemetry:Crossbar_engine.Telemetry.t ->
    unit ->
    t
  (** Spawn the worker domain, idle until the first {!submit}.  The
      [domains]/[registry]/[telemetry] triple is fixed for the worker's
      lifetime and passed to every {!execute} it runs. *)

  val submit : t -> Protocol.request array -> unit
  (** Hand a batch to the worker and return immediately.  Strictly one
      batch in flight: callers must {!collect} before submitting again.
      @raise Invalid_argument if a batch is already in flight. *)

  val descriptor : t -> Unix.file_descr
  (** The readiness pipe: becomes readable exactly when a submitted
      batch has finished and {!collect} will not block.  Watch it in the
      same [select] as the client socket. *)

  val collect : t -> outcome
  (** Drain the readiness byte and take the finished batch's outcome.
      Re-raises whatever {!execute} raised on the worker, on the calling
      domain.
      @raise Invalid_argument if no finished batch is pending (call only
      after {!descriptor} polls readable). *)

  val shutdown : t -> unit
  (** Stop the worker, join it, and close the pipe.  An executing batch
      is waited out first; a submitted-but-untaken batch, or a finished
      outcome nobody collected, is silently discarded — so cleanup on an
      error path (the server loop unwinding past an in-flight batch)
      still joins the domain and closes every descriptor.  On the normal
      path callers {!collect} before shutting down, so nothing is ever
      discarded.  Call at most once. *)
end
