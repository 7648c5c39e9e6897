(** Per-file AST checks for rules R1, R2, R4 and R5 (R6 is a file-set
    property handled by {!Driver}).  The walk is a [Parsetree] traversal via
    [Ast_iterator] — no regexes, so string and comment contents can never
    produce false positives. *)

val check :
  config:Config.t -> path:string -> Parsetree.structure -> Finding.t list
(** [check ~config ~path ast] returns the unsuppressed findings for one
    implementation file, in source order. *)

val flatten : Longident.t -> string list
(** Components of a long identifier, outermost first. *)

val dotted : Longident.t -> string
(** [flatten] joined with ["."]. *)

val line_col : Location.t -> int * int
(** Start line (1-based) and column (0-based) of a location. *)
