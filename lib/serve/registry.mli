(** Named hot trees: the daemon's resident set of solved factor trees.

    Each entry pairs a model with its solved convolution lattice, keyed
    by a client-chosen name.  Storage is a
    {!Crossbar_engine.Cache.Memo} with optional LRU capacity: a bounded
    registry keeps the hot working set and silently evicts cold trees —
    a [delta]/read query naming an evicted tree gets an error and the
    client re-installs with [solve] (the registry cannot re-derive a
    model from a name).

    Evicted trees are not discarded: their lattices are parked and
    returned to the convolution arenas by {!recycle_evicted}, which the
    batcher calls between batches — so a capacity-bounded daemon under
    install churn recycles storage instead of growing the heap. *)

type entry = {
  model : Crossbar.Model.t;
  solved : Crossbar.Convolution.t;
}

type t

val create : ?capacity:int -> unit -> t
(** Unbounded by default; [~capacity:c] keeps at most [c] resident
    trees (LRU eviction, see {!Crossbar_engine.Cache.Memo.create}).
    @raise Invalid_argument if [capacity < 1]. *)

val install : t -> name:string -> Crossbar.Model.t -> entry * bool
(** [install t ~name model] solves [model] and stores it as [name],
    replacing any previous entry.  When the previous entry's model is
    delta-compatible (same switch shape and class count), the solve
    runs through {!Crossbar.Convolution.solve_delta} against it —
    bit-identical, [O(#changed log R)] combines — and the returned flag
    is [true]; a cold or shape-changing install performs a full build
    and returns [false].  Either warm path recycles the superseded
    tree's lattices into the convolution arenas (safe because the
    batcher shards requests per tree: nothing else reads the entry
    being replaced).
    @raise Failure as {!Crossbar.Convolution.solve}.  The warm paths
    recycle before the solve can fail, so after a failure [name] may
    still map to released lattices: the caller must {!remove} it. *)

val find : t -> string -> entry option
(** Lookup by name, refreshing LRU recency; counts toward the
    registry's hit/miss statistics.  [None] means never installed — or
    evicted. *)

val replace : t -> name:string -> entry -> unit
(** Store a delta-updated entry under an existing (or new) name. *)

val remove : t -> string -> unit
(** Forget [name] after a failed solve or delta, whose previous tree may
    be partly recycled already; later reads answer "unknown tree".  Not
    an eviction: the tree is neither counted nor parked, and a tree of
    that name parked since the last drain is dropped, not recycled. *)

val recycle_evicted : t -> int
(** Drain the trees displaced by capacity pressure since the last call,
    returning each one's lattices to the convolution arenas via
    {!Crossbar.Convolution.recycle}; yields the number recycled.  Call
    only at a quiescent point — after the batch's pool run has collected
    every worker band — since an in-flight query may still be reading a
    just-evicted tree.

    A parked tree whose name is resident again at drain time is dropped
    instead of recycled: an eviction that raced a concurrent
    install/delta of the same name leaves the parked pre-delta tree
    sharing nodes with the live reinstalled one, so recycling it would
    release live lattices.  Likewise only the newest parked generation
    of a name is recycled when the same name was displaced more than
    once between drains.  Dropped entries may leak a few lattices;
    they never corrupt the arenas. *)

val size : t -> int
(** Resident tree count. *)

val capacity : t -> int option
(** The bound given at {!create}; [None] when unbounded. *)

val stats_json : t -> Crossbar_engine.Json.t
(** [{"entries":..,"capacity":..,"hits":..,"misses":..,"evictions":..}]
    — the registry block of a [stats] response ([capacity] is [null]
    when unbounded). *)
