(** Deterministic fan-out over the process-wide worker domains.

    [run] evaluates a pure task function over indices [0 .. tasks-1] and
    returns the results in index order, so the output is bit-identical
    regardless of how many domains execute it (work stealing only
    changes {e which} domain computes an index, never what is
    computed).  It is a thin layer over {!Crossbar.Band_pool.run_tasks}:
    the calling domain is worker zero and the others are the band
    pool's parked domains, so no domain is spawned per call (the band
    pool starts its workers once, on first use).  When only one worker
    is wanted — [Domain.recommended_domain_count () = 1], an explicit
    [~domains:1], or a single task — the tasks run sequentially in the
    calling domain, as does a run issued from inside a task or while
    another domain's fan-out holds the band pool.  A banded combine
    inside a task runs its bands on the task's domain while every
    worker is busy, and shares them with the workers that have run out
    of tasks once some have, so an unbalanced run still uses its idle
    domains. *)

val recommended_domains : unit -> int
(** Pool width used when [?domains] is omitted:
    [Domain.recommended_domain_count ()] — the runtime's estimate of
    usefully parallel domains on this machine — overridable with the
    [CROSSBAR_DOMAINS] environment variable.
    @raise Invalid_argument if [CROSSBAR_DOMAINS] is set but is not an
    integer [>= 1]: a daemon misconfigured at deploy time must fail
    loudly, not run at a silently substituted width. *)

val run : ?domains:int -> tasks:int -> (int -> 'a) -> 'a array
(** [run ~tasks f] returns [[| f 0; ...; f (tasks-1) |]].  [f] must be
    safe to call from multiple domains (the solver layers are pure).  If
    any task raises, the first exception observed is re-raised in the
    caller once every worker has finished, and remaining un-started
    tasks are abandoned.
    @raise Invalid_argument if [tasks < 0] or [domains < 1]. *)
