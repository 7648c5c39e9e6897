(** Request batching: the daemon's execution core.

    A batch is the set of requests queued while the previous batch was
    being served.  [execute] serves them in arrival order on the calling
    domain, so a delta's single [O(#changed log R)] recombine, and the
    hot tree it updates, serve every query queued behind it instead of
    each query re-solving.

    Determinism: responses come back index-aligned with the request
    array and are bit-identical to serving the same requests one at a
    time, capacity evictions and LRU recency included — by
    construction, and checked byte for byte by test_serve and
    perfbench's serve-admit oracle.  The daemon loop ([Server.run])
    calls [execute] inline, one batch at a time. *)

type outcome = {
  responses : Protocol.response array;
      (** element [i] answers request [i], as the handler computed it;
          {!Protocol.write_response} puts it on the wire *)
  shutdown : bool;  (** a [shutdown] request was present *)
}

val execute :
  ?domains:int ->
  registry:Registry.t ->
  telemetry:Crossbar_engine.Telemetry.t ->
  Protocol.request array ->
  outcome
(** Serve one batch, in arrival order on the calling domain.  Every
    request — including failures, [stats] and [shutdown] — produces
    exactly one response and is recorded once in [telemetry], with the
    request's service time on the monotonic clock
    ({!Crossbar_engine.Clock}) as its [wall_seconds].  A [stats]
    response counts the requests before it, not the whole batch.
    Solver errors ([Invalid_argument], [Failure]), a model too large to
    allocate ([Out_of_memory]) and unknown trees become [ok:false]
    responses, never exceptions: a malformed query must not take the
    daemon down.  A [solve] or [delta] that fails leaves its tree
    absent from the registry ({!Registry.remove}), since the failed
    re-solve may already have recycled the previous tree's lattices;
    a bad [delta] change is refused first and keeps the tree.

    [domains] is ignored.  It is accepted only for callers that still
    pass it, and goes when they do. *)
