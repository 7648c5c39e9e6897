(** Conservative compilation-unit dependency analysis used to decide where
    rule R8 (domain-safety) applies.

    References are collected syntactically from the Parsetree: every module
    path prefix of a long identifier plus module-position identifiers
    (aliases, opens, functor arguments).  Resolution is per-directory first
    (units of the same dune library refer to each other unqualified), then
    through library wrapper modules ([Crossbar_numerics.Prob] pulls in the
    whole [lib/numerics] library — an over-approximation, which is the safe
    direction for a safety rule). *)

val refs : Parsetree.structure -> string list
(** Capitalised module names referenced by one implementation, deduplicated,
    in first-occurrence order. *)

val unit_name : string -> string
(** ["lib/core/model.ml"] → ["Model"]. *)

val library_name_of_dune : string -> string option
(** Extracts the [(name ...)] atom from a dune file's text. *)

type graph

val build : read_dune:(string -> string option) -> (string * string list) list -> graph
(** [build ~read_dune files] indexes [(path, refs)] pairs; [read_dune] maps
    a dune-file path to its contents (or [None]) so the module stays free of
    direct filesystem access. *)

val reachable : graph -> roots:string list -> string -> bool
(** [reachable graph ~roots] is the membership test for the transitive
    closure of [roots] (paths) under the reference relation. *)
