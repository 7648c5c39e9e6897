(** Lexical scan for in-source suppression comments.

    Recognised directives, anywhere inside a comment containing the
    ["lint:"] marker:

    - [(* lint: disable=R1,R5 — reason *)] suppresses the named rules on
      the directive's own line and on the following line (so the comment
      can trail the offending expression or sit just above it);
    - [(* lint: disable-file=R4 — reason *)] suppresses for the whole file;
    - [(* lint: domain-safe — reason *)] is shorthand for
      [disable=R8,R9] — one annotation covers both shared-state rules;
    - [(* lint: guarded=name1,name2 — reason *)] declares the named
      captures at a domain-boundary call site to be safely guarded
      (single-writer protocol, read-only sharing, joined before reads);
      R10 skips exactly those names on the directive's own line and the
      next, leaving every other capture at the site flagged.

    The free-form reason is not parsed but is required by convention; the
    [Syntax] pseudo-rule can never be suppressed. *)

type t

val empty : unit -> t
(** A scan result with no directives (used for unreadable files). *)

val scan : string -> t
(** [scan source_text] collects every directive with its line number. *)

val active : t -> rule:Rule.id -> line:int -> bool
(** Whether findings for [rule] at [line] are suppressed. *)

val guarded : t -> line:int -> string list
(** Capture names declared guarded at [line] via [guarded=] directives
    (a directive covers its own line and the following one). *)
