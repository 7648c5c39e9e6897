(** Minimal JSON tree, writer and validating parser.

    The telemetry and serve responses the engine emits must be
    consumable by any downstream tooling, so the writer produces strict
    RFC 8259 output (non-finite floats are emitted as [null]); the
    parser lets tests and tools re-read what was written and fail
    loudly on malformed output, and reads the serve requests the direct
    reader ([Crossbar_serve.Protocol.read_request]) does not take.
    Both read numbers through {!number}.  No third-party dependency is
    involved. *)

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

val write : Buffer.t -> t -> unit
(** [write b json] appends {!to_string}'s rendering of [json] to [b]. *)

val add_string : Buffer.t -> string -> unit
(** [add_string b s] appends [s] as a quoted JSON string: quote,
    backslash and control characters escaped, every other byte as is. *)

val add_float : Buffer.t -> float -> unit
(** [add_float b x] appends the token {!to_string} writes for [Float x]:
    C's [%.17g] (17 significant digits, so every double reads back
    bit for bit), with [.0] appended when that text has neither a [.]
    nor an [e], and [null] for a non-finite [x].  Values with
    [1e-6 < |x| < 1e16] take an exact integer path, several times faster
    than the C formatter; the rest go through it. *)

val pp : Format.formatter -> t -> unit
(** Indented rendering (2-space), suitable for checked-in snapshots. *)

val of_string : string -> (t, string) result
(** Strict parser for the subset {!to_string}/{!pp} emit (all of JSON
    except exotic escapes [\uXXXX] surrogate pairs are passed through
    unvalidated).  Numbers go through {!number}. *)

(** {2 Numbers}

    The one number reader: {!of_string} and the serve request reader
    both tokenise with {!number_end} and read the token with {!number},
    so the codebase has a single number grammar. *)

val number_end : string -> int -> int
(** [number_end text start] is the end of the number token at [start]:
    the longest run of the characters [0-9 + - . e E].  [start] itself
    when there is none. *)

val number : string -> int -> int -> t option
(** [number text start stop] reads the token [text.[start .. stop - 1]]:
    [Int] when it has no [.], [e] or [E] and [int_of_string_opt] takes
    it, otherwise [Float] of [float_of_string_opt] (so a number outside
    the double range reads as an infinity); [None] when neither takes
    it.  A token in strict decimal form whose digits make an integer
    below 2^53, with a decimal exponent within ±22, is one exact multiply
    or divide by a power of ten (Clinger's fast path): the same
    correctly rounded double, bit for bit, without copying the token.
    An int of at most 18 significant digits is read without a copy
    too. *)

val member : string -> t -> t option
(** [member key (Assoc _)] looks up a field; [None] on anything else. *)
