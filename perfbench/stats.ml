let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  if not (q >= 0. && q <= 1.) then
    invalid_arg (Printf.sprintf "Stats.quantile: q=%g outside [0, 1]" q);
  let a = sorted xs in
  let h = q *. float_of_int (n - 1) in
  let lo = truncate h in
  let hi = min (lo + 1) (n - 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* Python's statistics.quantiles, method "exclusive", n = 4:
     m = len + 1; j = i*m // 4 clamped to [1, len-1];
     delta = i*m - j*4; q_i = (a[j-1]*(4-delta) + a[j]*delta) / 4 *)
let quartiles xs =
  let len = Array.length xs in
  if len < 2 then invalid_arg "Stats.quartiles: fewer than two samples";
  let a = sorted xs in
  let m = len + 1 in
  let q i =
    let j = max 1 (min (len - 1) (i * m / 4)) in
    let delta = float_of_int ((i * m) - (j * 4)) in
    ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
  in
  (q 1, q 2, q 3)

let iqr_share xs =
  let q1, _, q3 = quartiles xs in
  let mid = median xs in
  if Float.equal mid 0. then invalid_arg "Stats.iqr_share: zero median";
  (q3 -. q1) /. mid
