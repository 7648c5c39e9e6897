(** Orchestrates an untyped lint run: discovers [.ml]/[.mli] files under the
    given paths, parses them with compiler-libs, computes the R3 reachability
    set over the whole file set, applies the per-file rules, honours
    suppression comments, and appends the R6 interface check.

    The loading and scope plumbing ({!load_sources}, {!scope_membership}) is
    exposed so the Typedtree stage ([Crossbar_lint_typed]) shares the same
    file universe and the same R3/R8 scope instead of re-deriving either. *)

type parsed =
  | Impl of Parsetree.structure
  | Intf
  | Broken  (** a [Rule.Syntax] finding was already emitted *)

type source = { path : string; text : string; parsed : parsed }

val discover : string -> string list
(** Recursively lists [.ml]/[.mli] files under a path (a single file is
    returned as-is); skips dot-directories and [_build].  Results are
    normalized and deterministically ordered. *)

val load_sources : string list -> source list * Finding.t list
(** [load_sources paths] discovers and parses every file under [paths],
    each once even when the paths overlap (first occurrence kept);
    unparseable files come back as [Broken] alongside their [Rule.Syntax]
    findings. *)

val scope_membership : config:Config.t -> source list -> string -> bool
(** The file-membership predicate for [config.r3_scope]: either a plain
    prefix match or the set of files transitively referenced from the
    scope roots (resolved through dune library wrappers).  Shared by R3
    (untyped) and R8 (typed). *)

val lint : config:Config.t -> string list -> Finding.t list
(** [lint ~config paths] runs every enabled untyped rule over the
    files/directories in [paths] and returns the surviving findings sorted
    by position.  Syntax errors surface as [Rule.Syntax] findings rather
    than exceptions; filesystem errors (unreadable path) do raise
    [Sys_error]. *)

val pp_report : Format.formatter -> Finding.t list -> unit
(** Human-readable rendering: one [file:line:col: [Rn] message] line per
    finding plus a trailing summary line. *)
