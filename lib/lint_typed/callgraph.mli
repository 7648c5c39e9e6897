(** Interprocedural R9 over per-file summaries.

    Builds a typed call graph by resolving each summary's referenced
    value paths against the functions every other summary defines, walks
    it breadth-first from the functions defined under the configured
    [r9_roots] directories, and flags every unlocked write to top-level
    mutable state inside a reachable function.

    This is the cheap half of R9: the summaries are already in memory,
    so the graph walk costs one pass over them.  Resolution is over-approximate in the safe
    direction — an unresolvable call edge drops reachability (missed
    edges are reported by R9 firing on the callee's own root instead),
    while lock context travels with each write, not each call site. *)

type node = { file : Summary.file; func : Summary.func }

val short_modname : string -> string
(** Trailing segment of a mangled unit name: ["Crossbar__Solver"] is
    addressed from other units as ["Solver"]. *)

val resolver : Summary.file list -> Summary.file -> string -> node option
(** [resolver files caller call] resolves a referenced value path to the
    defining function: dotted paths through a (short module name, value)
    table, bare names within [caller]'s own file.  Shared by the R9
    reachability walk and the {!Capture} escape fixpoint, so both
    analyses agree on what an edge means. *)

val findings :
  config:Crossbar_lint.Config.t ->
  ?locked_lambdas:(string * int, unit) Hashtbl.t ->
  Summary.file list ->
  Crossbar_lint.Finding.t list
(** Unsuppressed R9 findings for the whole program described by the given
    summaries, in file/line order of discovery.  [locked_lambdas] is the
    {!Capture} fixpoint's set of [(file path, lambda id)] proven to run
    under a configured lock wrapper through indirect calls — writes
    inside those lambdas are treated as locked, closing the
    higher-order escape hatch where a callback stored and invoked through
    [Mutex.protect m cb] was reported as unlocked. *)
