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
  (* lint: alloc=record -- the result lattice itself, one per combine *)
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

let reset ?(stride = 1) t =
  if stride < 1 then invalid_arg "Lattice.reset: stride < 1";
  Bigarray.Array1.fill t.values 0.;
  t.stride <- stride;
  t.scale <- 0

let max_abs t =
  (* lint: alloc=m -- one scratch cell for the whole scan *)
  let m = ref 0. in
  for u = 0 to t.capacity do
    let x = Float.abs (Bigarray.Array1.unsafe_get t.values u) in
    if x > !m then m := x
  done;
  !m

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

let normalize t =
  let k = chunks_for (max_abs t) in
  if k > 0 then begin
    for u = 0 to t.capacity do
      Bigarray.Array1.unsafe_set t.values u
        (apply_chunks (Bigarray.Array1.unsafe_get t.values u) k)
    done;
    t.scale <- t.scale + k
  end

let log_scale t = float_of_int t.scale *. log_rescale_factor

module Grid = struct
  type t = { data : values; rows : int; cols : int }

  let create ~rows ~cols =
    if rows < 1 || cols < 1 then invalid_arg "Lattice.Grid.create: empty";
    let data =
      Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (rows * cols)
    in
    Bigarray.Array1.fill data 0.;
    (* lint: alloc=record -- grids are per-context, not per combine *)
    { data; rows; cols }

  let rows t = t.rows
  let cols t = t.cols

  let get t i j =
    if i < 0 || i >= t.rows || j < 0 || j >= t.cols then
      invalid_arg "Lattice.Grid.get: out of bounds";
    Bigarray.Array1.get t.data ((i * t.cols) + j)

  let set t i j x =
    if i < 0 || i >= t.rows || j < 0 || j >= t.cols then
      invalid_arg "Lattice.Grid.set: out of bounds";
    Bigarray.Array1.set t.data ((i * t.cols) + j) x

  let[@inline] unsafe_get t i j =
    Bigarray.Array1.unsafe_get t.data ((i * t.cols) + j)

  let[@inline] unsafe_set t i j x =
    Bigarray.Array1.unsafe_set t.data ((i * t.cols) + j) x
end
