module Logspace = Crossbar_numerics.Logspace

(* Values above this trigger an adaptive rescale (paper Section 6). *)
let rescale_threshold = 1e250
let rescale_factor = 0x1.0p-830 (* 2^-830 ~ 1.4e-250 *)
let log_rescale_factor = Logspace.log_checked rescale_factor

type values =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  values : values;
  capacity : int;
  mutable stride : int;
  mutable scale : int;
}

let create ?(stride = 1) ~capacity () =
  if capacity < 0 then invalid_arg "Lattice.create: negative capacity";
  if stride < 1 then invalid_arg "Lattice.create: stride < 1";
  let values =
    Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (capacity + 1)
  in
  Bigarray.Array1.fill values 0.;
  { values; capacity; stride; scale = 0 }

let capacity t = t.capacity
let stride t = t.stride
let scale t = t.scale
let get t u = Bigarray.Array1.get t.values u
let set t u x = Bigarray.Array1.set t.values u x
(* Inlined so the kernels' float loads and stores stay unboxed: an
   out-of-line call would return each value boxed (see DESIGN.md,
   "Combine kernels"). *)
let[@inline] unsafe_get t u = Bigarray.Array1.unsafe_get t.values u
let[@inline] unsafe_set t u x = Bigarray.Array1.unsafe_set t.values u x
let[@inline] values t = t.values

let reset ?(stride = 1) t =
  if stride < 1 then invalid_arg "Lattice.reset: stride < 1";
  Bigarray.Array1.fill t.values 0.;
  t.stride <- stride;
  t.scale <- 0

let max_abs t =
  let m = ref 0. in
  for u = 0 to t.capacity do
    let x = Float.abs (Bigarray.Array1.unsafe_get t.values u) in
    if x > !m then m := x
  done;
  !m

(* Entries below [max_abs * tail_cut] sit 147 bits below double
   precision of the profile's largest entry, so no sum that also holds
   that entry can see them. *)
let tail_cut = 0x1.0p-200

(* Zeroes the trailing run of entries whose magnitude is below [cut],
   scanning down from [u]; the first entry at or above the cut (or NaN)
   ends the run. *)
let rec zero_tail (values : values) cut u =
  if u >= 0 && Float.abs (Bigarray.Array1.unsafe_get values u) < cut then
  begin
    Bigarray.Array1.unsafe_set values u 0.;
    zero_tail values cut (u - 1)
  end

(* Leading entries are never touched: under heavy load they hold the
   corner of G.  A non-finite maximum trims nothing. *)
let trim_below t m =
  if Float.is_finite m then zero_tail t.values (m *. tail_cut) t.capacity

let trim_tail t = trim_below t (max_abs t)

(* The test is [Prob.is_zero]'s, spelt out: a call out of the module
   would box every entry the scan reads.  NaN counts as support. *)
let rec last_nonzero (values : values) u =
  if u < 0 || not (Float.abs (Bigarray.Array1.unsafe_get values u) <= 0.)
  then u
  else last_nonzero values (u - 1)

let support t = last_nonzero t.values t.capacity

let add_scale t k =
  if k < 0 then invalid_arg "Lattice.add_scale: negative chunk count";
  t.scale <- t.scale + k

(* Applies [chunks] rescale chunks one multiplication at a time:
   rescale_factor^2 already underflows to zero, so the chunks cannot be
   collapsed into a single factor.  Tail recursion keeps the value in a
   register — same left-to-right multiplication sequence as a reference
   cell, so results are bit-identical to repeated [rescale] passes. *)
let rec apply_chunks value chunks =
  if chunks = 0 then value
  else apply_chunks (value *. rescale_factor) (chunks - 1)

let rescale t =
  for u = 0 to t.capacity do
    Bigarray.Array1.unsafe_set t.values u
      (Bigarray.Array1.unsafe_get t.values u *. rescale_factor)
  done;
  t.scale <- t.scale + 1

(* Chunks needed to bring a magnitude [m] at or below the threshold —
   the count the old [while max_abs t > threshold do rescale t done]
   loop performed, computed from one [frexp] instead of one full-lattice
   scan per chunk.  Exactness: multiplying by rescale_factor shifts the
   binary exponent by exactly 830 as long as the value stays normal, and
   the minimal [k] leaves [m] above [threshold * rescale_factor ~ 1.4],
   so every step of the replaced loop was exact and the comparison can
   be done on (mantissa, exponent) pairs directly.  Non-finite maxima
   are left alone: no number of chunks can bring an infinity below the
   threshold (the old loop would not terminate). *)
let chunks_for m =
  if not (m > rescale_threshold) || not (Float.is_finite m) then 0
  else begin
    let mm, em = Float.frexp m in
    let mt, et = Float.frexp rescale_threshold in
    let k = (em - et) / 830 in
    if em - (830 * k) < et || (em - (830 * k) = et && mm <= mt) then k
    else k + 1
  end

let apply_normalize t m =
  let k = chunks_for m in
  if k > 0 then begin
    for u = 0 to t.capacity do
      Bigarray.Array1.unsafe_set t.values u
        (apply_chunks (Bigarray.Array1.unsafe_get t.values u) k)
    done;
    t.scale <- t.scale + k
  end

let normalize t = apply_normalize t (max_abs t)

(* Trimming leaves the maximum in place, so one scan serves both. *)
let trim_normalize t =
  let m = max_abs t in
  trim_below t m;
  apply_normalize t m

let log_scale t = float_of_int t.scale *. log_rescale_factor
