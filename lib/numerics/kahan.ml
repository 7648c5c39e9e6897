type t = { mutable sum : float; mutable compensation : float }

let create () = { sum = 0.; compensation = 0. }

let add acc x =
  (* Neumaier's variant: also correct when the new term dominates. *)
  let t = acc.sum +. x in
  if Float.abs acc.sum >= Float.abs x then
    acc.compensation <- acc.compensation +. (acc.sum -. t +. x)
  else acc.compensation <- acc.compensation +. (x -. t +. acc.sum);
  acc.sum <- t

let total acc = acc.sum +. acc.compensation

let reset acc =
  acc.sum <- 0.;
  acc.compensation <- 0.

(* Explicit index loops: same left-to-right accumulation order as the
   Array.iter versions (so totals are bit-identical), without the
   per-call iteration closure. *)
let sum values =
  let acc = create () in
  for i = 0 to Array.length values - 1 do
    add acc values.(i)
  done;
  total acc

let dot xs ys =
  if Array.length xs <> Array.length ys then
    invalid_arg "Kahan.dot: length mismatch";
  let acc = create () in
  for i = 0 to Array.length xs - 1 do
    add acc (xs.(i) *. ys.(i))
  done;
  total acc
