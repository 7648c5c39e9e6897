(** Typedtree-level rules (stage two of the linter).

    Where the Parsetree rules in [Crossbar_lint.Rules] see only syntax,
    these see the typechecker's output: resolved value paths, inferred
    types, and desugared applications.  One pass over a unit's [.cmt]
    yields both the R7/R8 findings for that file and the {!Summary.file}
    record — call edges, writes with lock context, the
    closure-capture data (lambdas, mutable captures, forwarding call
    sites), and the effect data (unguarded raise sites, candidate
    cross-domain float operations, return domains) — that feeds the
    interprocedural R9, R10, R12 and R13 analyses in {!Callgraph},
    {!Capture} and {!Effects}. *)

type session
(** Mutable compiler-libs state (load path, persistent-structure caches)
    shared across the files of one run.  Reconstruction of typing
    environments from [.cmt] summaries goes through global compiler-libs
    state; a [session] re-initialises it only when a unit was compiled
    with a different load path than its predecessor. *)

val session : unit -> session

val lock_wrapper : config:Crossbar_lint.Config.t -> string -> bool
(** Whether a resolved value path names a configured lock wrapper
    ([r9_lock_wrappers]); a bare single-component pattern matches any
    path ending in that component. *)

val domain_sink : config:Crossbar_lint.Config.t -> string -> bool
(** Whether a resolved value path names a configured domain boundary
    ([r10_sinks]).  A two-component pattern such as ["Pool.run"] matches
    the plain, aliased and unit-mangled spellings of the same function
    ([Pool.run], [Crossbar_engine.Pool.run], [Crossbar_engine__Pool.run]). *)

val dotted_match : pattern:string -> string -> bool
(** The matcher behind {!domain_sink}, exposed for the effect stage's
    [r12_boundaries]/producer patterns: a bare component
    matches any path ending there, a dotted pattern additionally requires
    the short (unmangled) name of the module right above the value. *)

val analyse :
  config:Crossbar_lint.Config.t ->
  path:string ->
  r8_applies:bool ->
  session:session ->
  cmt_root:string ->
  cmt_path:string ->
  (Crossbar_lint.Finding.t list * Summary.file, string) result
(** [analyse] reads [cmt_path] (relative load-path entries inside it are
    resolved against [cmt_root]) and returns the file's R7/R8 findings —
    unfiltered by suppressions, which the driver applies — plus its R9
    summary.  [path] is the source path used in findings and summaries;
    [r8_applies] says whether the file sits in the configured R8 scope
    (shared-state rules only apply where pool workers can reach).
    Errors are soft: a missing or non-typedtree [.cmt] reports why. *)
