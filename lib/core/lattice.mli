(** Flat [Bigarray] storage for the convolution solver's scaled
    sequences (paper Section 6 dynamic rescaling, tracked per partial
    product).

    The class-factored form of Algorithm 1 (see DESIGN.md,
    "Class-factored convolution") works on one-dimensional profiles over
    used bandwidth [u = 0 .. capacity] rather than the full
    [(N1+1) x (N2+1)] lattice.  Each profile carries

    - a flat unboxed [float64] [Bigarray.Array1] of values (no per-row
      indirection, GC-opaque, and safe for several domains to write
      disjoint index ranges of — the banded combine kernel relies on
      both properties);
    - a [stride]: entries are guaranteed zero except at multiples of it
      (a class of bandwidth [a] only populates multiples of [a]), which
      combine loops exploit;
    - an integer [scale]: the stored values are the true values times
      [rescale_factor ^ scale].  Scales add when two profiles are
      convolved, so the Section 6 rescale is tracked per partial product
      and cancelled only when a measure ratio is formed. *)

type t

type values =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val rescale_threshold : float
(** Magnitudes above this trigger an adaptive rescale ([1e250]). *)

val rescale_factor : float
(** One rescale chunk, [2^-830] — a power of two, so rescaling is exact
    in the significand and only the exponent moves. *)

val create : ?stride:int -> capacity:int -> unit -> t
(** All-zero profile over [0 .. capacity] with [scale = 0].  [stride]
    defaults to 1.
    @raise Invalid_argument if [capacity < 0] or [stride < 1]. *)

val capacity : t -> int
val stride : t -> int

val scale : t -> int
(** Number of [rescale_factor] chunks folded into the stored values. *)

val get : t -> int -> float
(** Bounds-checked read. @raise Invalid_argument out of bounds. *)

val set : t -> int -> float -> unit
(** Bounds-checked write. @raise Invalid_argument out of bounds. *)

val unsafe_get : t -> int -> float
(** Unchecked read for kernel inner loops whose index ranges are
    established once per pass; out-of-range indices are undefined
    behaviour.  Use {!get} everywhere else. *)

val unsafe_set : t -> int -> float -> unit
(** Unchecked write; see {!unsafe_get}. *)

val values : t -> values
(** The profile's storage, entry [u] at index [u], for kernel loops
    that fetch the Bigarray once instead of on every access.  The
    combine kernels only read it; a writer would have to keep the
    stride invariant true itself. *)

val reset : ?stride:int -> t -> unit
(** Zeroes every entry and resets [scale] to [0] and [stride] to the
    given value (default 1), making the profile indistinguishable from a
    fresh {!create} of the same capacity — the recycling primitive
    behind [Convolution.Arena].
    @raise Invalid_argument if [stride < 1]. *)

val max_abs : t -> float
(** Largest absolute entry (0. for the all-zero profile). *)

val tail_cut : float
(** [2^-200]: an entry whose magnitude is below [tail_cut] times its
    profile's largest lies 147 bits below double precision of that
    largest entry. *)

val trim_tail : t -> unit
(** Zeroes the trailing run of entries below [max_abs t *. tail_cut]:
    scanning down from [capacity], every entry below the cut becomes
    [0.] until the first entry at or above it.  Leading and interior
    entries are never touched, however small — under heavy load the
    low entries hold the corner of [G].  A profile whose maximum is
    zero or not finite is left alone.  Scale and stride are unchanged. *)

val support : t -> int
(** The largest index holding a non-zero entry ([-1] for the all-zero
    profile), found by a scan down from the top.  Every entry above it
    is zero; entries below it may be zero too. *)

val add_scale : t -> int -> unit
(** Bookkeeping only: credits [k] chunks to [scale] without touching the
    values (used when a combine pre-applied chunks to its operands).
    @raise Invalid_argument if [k < 0]. *)

val apply_chunks : float -> int -> float
(** [apply_chunks x k] multiplies [x] by {!rescale_factor} [k] times,
    one multiplication at a time ([rescale_factor]² underflows, so the
    chunks cannot be collapsed into one factor) — the same left-to-right
    sequence as [k] successive {!rescale} passes, hence bit-identical
    per entry. *)

val rescale : t -> unit
(** Multiplies every entry by {!rescale_factor} once and increments
    [scale]. *)

val normalize : t -> unit
(** Rescales until [max_abs t <= rescale_threshold].  The chunk count is
    computed from one [max_abs] scan and a [frexp] of the maximum (exact
    — each chunk shifts the binary exponent by exactly 830 while the
    value stays normal), then applied in a single pass; bit-identical to
    repeated whole-lattice {!rescale} sweeps.  Non-finite maxima are
    left untouched: no chunk count can bring them below the
    threshold. *)

val trim_normalize : t -> unit
(** {!trim_tail} then {!normalize}, sharing one [max_abs] scan: trimming
    never moves the maximum.  Bit-identical to the two calls in turn. *)

val log_scale : t -> float
(** [scale * log rescale_factor] — the log of the factor by which stored
    values exceed true values (non-positive). *)
