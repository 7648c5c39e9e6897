(** Deploy-time domain-count resolution.

    One reading of the [CROSSBAR_DOMAINS] override serves every layer
    that fans work out across OCaml 5 domains: [Engine.Pool] (sweep
    points, replications) and the banded combine kernel inside
    {!Convolution} (row bands of a single large combine). *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()] — the runtime's estimate of
    usefully parallel domains on this machine — overridable with the
    [CROSSBAR_DOMAINS] environment variable.
    @raise Invalid_argument if [CROSSBAR_DOMAINS] is set but is not an
    integer [>= 1]: a daemon misconfigured at deploy time must fail
    loudly, not run at a silently substituted width. *)
