(** Minimal JSON tree, writer and validating parser.

    The telemetry and serve responses the engine emits must be
    consumable by any downstream tooling, so the writer produces strict
    RFC 8259 output (non-finite floats are emitted as [null]); the
    parser reads serve requests and lets tests and tools re-read what
    was written and fail loudly on malformed output.  No third-party
    dependency is involved. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

val to_string : t -> string
(** Compact single-line rendering. *)

val pp : Format.formatter -> t -> unit
(** Indented rendering (2-space), suitable for checked-in snapshots. *)

val of_string : string -> (t, string) result
(** Strict parser for the subset {!to_string}/{!pp} emit (all of JSON
    except exotic escapes [\uXXXX] surrogate pairs are passed through
    unvalidated).  Numbers with a fractional part, exponent, or outside
    [int] range parse as [Float]. *)

val member : string -> t -> t option
(** [member key (Assoc _)] looks up a field; [None] on anything else. *)
