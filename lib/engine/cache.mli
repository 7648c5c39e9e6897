(** Keyed caches: a generic domain-safe memo table plus the solved-model
    cache the sweep engine runs on.

    The sweep engine evaluates thousands of closely related models —
    figure series share sizes, revenue gradients re-solve perturbed
    copies — so solved results are memoised under a fingerprint of the
    exact model parameters and the algorithm that would run.  The cached
    value is a full {!Crossbar.Solver.solution} (measures {e and}
    normalisation from one solve), so a sweep never solves the same
    model twice for any reason.

    Both layers are domain-safe: lookups and insertions are serialised by
    a mutex, while computations on a miss run outside the lock so
    concurrent misses on different keys still proceed in parallel.  Two
    domains racing on the {e same} key may both compute it; callers
    supply deterministic functions, so whichever insertion wins stores
    the identical value and determinism is preserved. *)

type key = string
(** Cache keys are opaque fingerprints; equal keys must mean equal
    results.  For models, see {!key_of_model}. *)

(** Generic string-keyed memo table.  The solver cache below is one
    instantiation; the serve registry ([Crossbar_serve.Registry]) is the
    other, holding named factor trees under an LRU capacity. *)
module Memo : sig
  type 'a t

  val create : ?capacity:int -> ?on_evict:(key -> 'a -> unit) -> unit -> 'a t
  (** Unbounded by default.  With [~capacity:c], the table holds at most
      [c] entries: inserting into a full table first evicts the
      least-recently-{e used} entry (hits refresh recency, in insertion
      order among untouched entries) — sized caches keep the working set
      of a sweep without growing across long runs.

      [on_evict] fires once per entry displaced by capacity pressure —
      after the internal lock is released, so the callback may re-enter
      the memo — with the evicted key and value.  It does {e not} fire
      for in-place replacement by {!set} (the caller supplied the new
      value knowingly) or for {!clear} (an explicit drop, not
      displacement): exactly the occasions counted by {!evictions}.
      The serve registry uses it to route evicted factor trees back to
      the convolution arenas.
      @raise Invalid_argument if [capacity < 1]; the message carries the
      offending value. *)

  val find_or_compute : 'a t -> key -> (unit -> 'a) -> 'a * bool
  (** The cached or freshly computed value, and whether it was a cache
      hit.  Counters update accordingly; the computation runs outside
      the lock. *)

  val find : 'a t -> key -> 'a option
  (** Plain lookup: counts a hit (refreshing recency) or a miss, without
      computing anything on absence — for callers like the serve
      registry whose recovery from a miss is an error response, not a
      recomputation. *)

  val set : 'a t -> key -> 'a -> unit
  (** Insert-or-replace, marking the entry most recently used.  A fresh
      insert into a full bounded table first evicts the LRU entry (as
      {!find_or_compute}); replacing an existing key never evicts.
      Neither a hit nor a miss is counted — [set] is a write, not a
      lookup. *)

  val remove : 'a t -> key -> unit
  (** Drops [key] if present.  Like {!clear} it is the owner's explicit
      drop, not displacement: [on_evict] does not fire, and no counter
      moves.  The serve registry uses it to forget a tree whose re-solve
      failed after recycling the previous tree's lattices. *)

  val clear : 'a t -> unit
  (** Drops every entry {e and} resets the statistics: [hits], [misses]
      and [evictions] return to 0 (so [hit_rate] describes only
      post-clear traffic), and the internal recency tick restarts with
      the table — stamps only order resident entries, so an emptied
      table has nothing for it to stay monotone against.  Dropped
      entries do not count as evictions. *)

  val hits : 'a t -> int
  val misses : 'a t -> int

  val evictions : 'a t -> int
  (** Entries displaced by capacity pressure (0 for unbounded tables). *)

  val size : 'a t -> int

  val hit_rate : 'a t -> float
  (** [hits / (hits + misses)]; [0.] before any lookup. *)
end

val key_of_model :
  ?algorithm:Crossbar.Solver.algorithm -> Crossbar.Model.t -> key
(** The fingerprint under which [find_or_solve] would file the model:
    switch dimensions, resolved algorithm, and every class's name,
    bandwidth and exact rate parameters, as fixed-width binary fields
    (integers as 64-bit little-endian, rates as their IEEE bit
    patterns, names length-prefixed), so keys are not printable text.
    Structurally equal models produce equal keys; any parameter perturbation, however
    small, produces a distinct key.  When [algorithm] is omitted the
    {!Crossbar.Solver.recommended} choice is baked into the key, since
    it alone determines which recurrence runs. *)

type t = Crossbar.Solver.solution Memo.t

val create : ?capacity:int -> unit -> t
(** See {!Memo.create}. *)

val find_or_compute :
  t ->
  ?algorithm:Crossbar.Solver.algorithm ->
  Crossbar.Model.t ->
  (unit -> Crossbar.Solver.solution) ->
  Crossbar.Solver.solution * bool
(** [find_or_compute t model f] files [f ()] under {!key_of_model} —
    the entry point for callers that produce the solution some other
    way than {!Crossbar.Solver.solve_full} (the sweep engine's
    incremental path).  [f] must return exactly what a fresh
    [solve_full] would (bit-identical), since hits and misses must be
    indistinguishable. *)

val find_or_solve :
  t ->
  ?algorithm:Crossbar.Solver.algorithm ->
  Crossbar.Model.t ->
  Crossbar.Solver.solution * bool
(** The cached or freshly computed solution, and whether it was a cache
    hit.  Counters update accordingly. *)

val hits : t -> int
val misses : t -> int

val evictions : t -> int
(** See {!Memo.evictions}. *)

val size : t -> int

val hit_rate : t -> float
(** [hits / (hits + misses)]; [0.] before any lookup. *)

val clear : t -> unit
(** See {!Memo.clear}. *)
