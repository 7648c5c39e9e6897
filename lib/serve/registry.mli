(** Named hot trees: the daemon's resident set of solved factor trees.

    Each entry pairs a model with its solved convolution lattice, keyed
    by a client-chosen name.  Storage is a
    {!Crossbar_engine.Cache.Memo} with optional LRU capacity: a bounded
    registry keeps the hot working set and silently evicts cold trees —
    a [delta]/read query naming an evicted tree gets an error and the
    client re-installs with [solve] (the registry cannot re-derive a
    model from a name).

    An evicted tree's lattices go back to the convolution arenas the
    moment it is displaced, so a capacity-bounded daemon under install
    churn recycles storage instead of growing the heap.  That is safe
    because the batcher serves every batch of a capacity-bounded
    registry on one domain ([Batcher.execute]): no other domain reads a
    tree as it is evicted. *)

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
    batcher serves one tree's requests on one domain: nothing else
    reads the entry being replaced).
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
    an eviction: the tree is neither counted nor recycled. *)

val size : t -> int
(** Resident tree count. *)

val capacity : t -> int option
(** The bound given at {!create}; [None] when unbounded. *)

val stats_json : t -> Crossbar_engine.Json.t
(** [{"entries":..,"capacity":..,"hits":..,"misses":..,"evictions":..}]
    — the registry block of a [stats] response ([capacity] is [null]
    when unbounded). *)
