(** Request batching: the daemon's execution core.

    A batch is the set of requests queued while the previous batch was
    being served.  [execute] groups them by target tree — so a delta's
    single [O(#changed log R)] recombine, and the hot tree it updates,
    serve every query queued behind it instead of each query re-solving
    — and, when the registry is unbounded, fans the per-tree groups out
    across an {!Crossbar_engine.Pool} (per-tree worker sharding:
    requests for one tree run sequentially in arrival order; distinct
    trees run concurrently).  With a capacity, every batch is served in
    arrival order on the calling domain instead.

    Determinism: responses come back index-aligned with the request
    array and are bit-identical to serving the same requests one at a
    time, capacity evictions included — the property
    test_serve and perfbench's serve-admit oracle check byte for byte.
    The daemon loop ([Server.run]) calls [execute] inline, one batch at
    a time. *)

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
(** Serve one batch.  Every request — including failures, [stats] and
    [shutdown] — produces exactly one response and is recorded once in
    [telemetry], with the request's service time on the monotonic clock
    ({!Crossbar_engine.Clock}) as its [wall_seconds].  Solver errors
    ([Invalid_argument], [Failure]) and unknown trees become [ok:false]
    responses, never exceptions: a malformed query must not take the
    daemon down.  A [solve] or [delta] that fails leaves its tree
    absent from the registry ({!Registry.remove}), since the failed
    re-solve may already have recycled the previous tree's lattices;
    a bad [delta] change is refused first and keeps the tree.
    [domains] bounds the pool
    (default {!Crossbar_engine.Pool.recommended_domains}).

    The batch is served in arrival order on the calling domain when
    [domains] is 1, when it names fewer than two trees, or when the
    registry has a capacity.  Only a bounded registry evicts, so an
    evicted tree is never read by another domain and the registry
    recycles it at once.  Any other batch fans its tree groups out in
    first-arrival order; with nothing evicted, the LRU order cannot
    show.  [stats] and [shutdown] run on the calling domain after the
    tree requests. *)
