(** Identifiers, one-line titles and rationales for the crossbar-lint rule
    set.  [Syntax] (rendered "R0") is the pseudo-rule reported when a file
    does not parse; it cannot be disabled or suppressed.  R1, R2 and R4-R6
    run on the Parsetree (untyped, fast); R7-R10, R12 and R13 need the
    Typedtree stage driven from dune-produced [.cmt] artifacts.  R12 and
    R13 additionally need the interprocedural effect stage (per-function
    raise and float-domain summaries closed over the call graph).  Ids are
    never renumbered: R3 and R11 were retired and are unknown ids. *)

type id =
  | Syntax
  | R1
  | R2
  | R4
  | R5
  | R6
  | R7
  | R8
  | R9
  | R10
  | R12
  | R13

val all : id list
(** The real rules, in id order ([Syntax] excluded). *)

val typed : id -> bool
(** Whether the rule needs the Typedtree stage (R7 and up). *)

val to_string : id -> string
(** ["R0"] for [Syntax], ["R1"], ["R2"], ... otherwise. *)

val of_string : string -> id option
(** Inverse of {!to_string}, case-insensitive: ["R0"] (or ["SYNTAX"])
    yields [Syntax], so a report's syntax findings read back; unknown
    ids yield [None]. *)

val parse_list : string -> (id list, string) result
(** Parses a comma-separated rule list ("R1,R5").  Unlike {!of_string}
    folded over the pieces, this fails loudly: an unknown id is an error
    naming the offending token and the valid ids, and empty pieces
    ("R1,,R2", a trailing comma, or an empty list) are syntax errors
    rather than silently dropped.  ["R0"]/["SYNTAX"] count as unknown:
    the syntax check always runs and cannot be selected. *)

val title : id -> string
(** One-line statement of the invariant. *)

val rationale : id -> string
(** Why the invariant matters for this codebase. *)

val compare : id -> id -> int
(** Orders [Syntax] first, then the rules by id. *)
