(** Request batching: the daemon's execution core.

    A batch is the set of requests queued while the previous batch was
    being served.  Its requests are served in arrival order on the
    calling domain, so a delta's single [O(#changed log R)] recombine,
    and the hot tree it updates, serve every query queued behind it
    instead of each query re-solving.

    Determinism: a batch answers bit for bit as its requests served one
    at a time, capacity evictions and LRU recency included — by
    construction, and checked byte for byte by test_serve and
    perfbench's serve-admit oracle.  The daemon loop ([Server.run])
    calls {!serve} on each request of a batch in turn and writes each
    response before it serves the next; {!execute} serves a whole batch
    and returns its responses together. *)

val serve :
  registry:Registry.t ->
  telemetry:Crossbar_engine.Telemetry.t ->
  Protocol.request ->
  Protocol.response
(** Serve one request on the calling domain.  Every request —
    including failures, [stats] and [shutdown] — produces exactly one
    response and is recorded once in [telemetry], with the request's
    service time on the monotonic clock ({!Crossbar_engine.Clock}) as
    its [wall_seconds].  A [stats] response counts the requests served
    before it.  Solver errors ([Invalid_argument], [Failure]), a model
    too large to allocate ([Out_of_memory]) and unknown trees become
    [ok:false] responses, never exceptions: a malformed query must not
    take the daemon down.  A [solve] or [delta] that fails leaves its
    tree absent from the registry ({!Registry.remove}), since the
    failed re-solve may already have recycled the previous tree's
    lattices; a bad [delta] change is refused first and keeps the
    tree.  A [shutdown] only answers: stopping is the caller's part
    ({!is_shutdown}). *)

val is_shutdown : Protocol.request -> bool
(** The request is a [shutdown]. *)

type outcome = {
  responses : Protocol.response array;
      (** element [i] answers request [i], as {!serve} computed it;
          {!Protocol.write_response} puts it on the wire *)
  shutdown : bool;  (** a [shutdown] request was present *)
}

val execute :
  ?domains:int ->
  registry:Registry.t ->
  telemetry:Crossbar_engine.Telemetry.t ->
  Protocol.request array ->
  outcome
(** Serve one batch: {!serve} on each request in arrival order, on the
    calling domain.  A [stats] response counts the requests before it,
    not the whole batch.

    [domains] is ignored.  It is accepted only for callers that still
    pass it, and goes when they do. *)
