(** Orchestrates an untyped lint run: discovers [.ml]/[.mli] files under the
    given paths, parses them with compiler-libs, applies the per-file rules,
    honours suppression comments, and appends the R6 interface check.

    A run of both stages loads its paths once ({!load}) and hands the
    result to {!lint_loaded} and to the Typedtree stage
    ([Crossbar_lint_typed.Driver.run_loaded]), so both see the same file
    universe, parsed once. *)

type parsed =
  | Impl of Parsetree.structure
  | Intf
  | Broken  (** a [Rule.Syntax] finding was already emitted *)

type source = { path : string; text : string; parsed : parsed }

val discover : string -> string list
(** Recursively lists [.ml]/[.mli] files under a path (a single file is
    returned as-is); skips dot-directories and [_build].  Results are
    normalized and deterministically ordered. *)

type loaded = {
  sources : source list;
      (** every file under the paths, each parsed once even when the
          paths overlap (first occurrence kept); unparseable files are
          [Broken] *)
  syntax_findings : Finding.t list;  (** the [Rule.Syntax] findings *)
}
(** One load of a path set, shared by the stages of a run. *)

val load : string list -> loaded
(** Discovers and parses every file under [paths].  Filesystem errors
    (unreadable path) raise [Sys_error]. *)

val lint_loaded : config:Config.t -> loaded -> Finding.t list
(** {!lint} over an already loaded path set. *)

val lint : config:Config.t -> string list -> Finding.t list
(** [lint ~config paths] runs every enabled untyped rule over the
    files/directories in [paths] and returns the surviving findings sorted
    by position.  Syntax errors surface as [Rule.Syntax] findings rather
    than exceptions; filesystem errors (unreadable path) do raise
    [Sys_error]. *)

val pp_report : Format.formatter -> Finding.t list -> unit
(** Human-readable rendering: one [file:line:col: [Rn] message] line per
    finding plus a trailing summary line. *)
