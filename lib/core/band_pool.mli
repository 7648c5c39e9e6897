(** Persistent worker pool: intra-combine row banding and the engine's
    task fan-out ([Crossbar_engine.Pool.run]) share it.

    A lazily-started, process-wide set of worker domains parked on
    per-worker mailboxes (mutex + condvar hand-off, atomic completion
    flag).  Dispatching a band costs one lock/signal per worker —
    roughly an order of magnitude less than a [Domain.spawn]
    round-trip — which is what lets {!Convolution}'s banding threshold
    sit near the point where the tiled kernel stops scaling instead of
    far above it.

    The pool is shared by the whole process and grows on demand to the
    largest [bands - 1] ever requested.  Dispatch is serialised: a
    {!run} that finds another fan-out in flight (a combine inside a
    {!run_tasks} task, or a concurrent domain) runs its bands on the
    calling domain, except those that pool bands with no task left to
    run take over.  Either way the result is the same, because band
    functions must write disjoint state. *)

val run : bands:int -> (int -> unit) -> unit
(** [run ~bands f] evaluates [f 0 .. f (bands - 1)], band 0 on the
    calling domain and the rest on pool workers, and returns when every
    band has finished: every band's writes are then visible to the
    caller and no band still runs.  [f] must confine its writes per
    band (bands run concurrently and in any order).

    If any band raises, every band still running is awaited before the
    exception is re-raised — the caller's own exception first, else the
    lowest-banded worker's; a run nested in another fan-out re-raises
    the first failure it observed.  The pool survives failures and
    serves subsequent runs normally.

    [bands = 1] runs [f 0] inline without touching the pool.  Raises
    [Invalid_argument] if [bands < 1]. *)

val run_tasks : bands:int -> tasks:int -> (int -> unit) -> unit
(** [run_tasks ~bands ~tasks f] evaluates [f 0 .. f (tasks - 1)] over
    [min bands tasks] bands dispatched as by {!run}: each band takes
    task indices from one atomic counter until none is left, then lends
    its domain to the banded combines of the tasks still running, so an
    unbalanced set of tasks does not leave domains idle while its
    longest task bands alone.  [f] must confine its writes per task.

    If a task raises, no further task starts and the first exception
    observed is re-raised once every band has finished.  With one band,
    or when called while another fan-out is in flight (from inside a
    task, say), the tasks run on the calling domain in index order and
    an exception propagates at once.
    @raise Invalid_argument if [bands < 1] or [tasks < 0]. *)

val size : unit -> int
(** Number of worker domains currently parked in the pool (0 until the
    first multi-band {!run}, then the high-water mark of [bands - 1]
    requested so far, until {!shutdown}). *)

val shutdown : unit -> unit
(** Quit and join every pool worker.  Subsequent {!run}s re-warm the
    pool transparently; idle processes (or tests asserting domain
    hygiene) can call this to drop the parked domains. *)
