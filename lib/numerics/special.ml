(* Lanczos approximation with g = 7, n = 9 (Godfrey coefficients). *)
let lanczos_g = 7.

(* lint: domain-safe — written once at load time, read-only thereafter *)
let lanczos_coefficients =
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
     771.32342877765313; -176.61502916214059; 12.507343278686905;
     -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]

let rec lgamma x =
  if Float.is_nan x || x <= 0. then invalid_arg "Special.lgamma: x <= 0"
  else if x < 0.5 then
    (* Reflection keeps the series argument away from the poles. *)
    log (Float.pi /. sin (Float.pi *. x)) -. lgamma (1. -. x)
  else
    let x = x -. 1. in
    let series = ref lanczos_coefficients.(0) in
    for i = 1 to Array.length lanczos_coefficients - 1 do
      series := !series +. (lanczos_coefficients.(i) /. (x +. float_of_int i))
    done;
    let t = x +. lanczos_g +. 0.5 in
    (0.5 *. log (2. *. Float.pi))
    +. ((x +. 0.5) *. log t)
    -. t
    +. log !series

let factorial_table_size = 1024

(* Built eagerly at module init: a [lazy] here is not domain-safe —
   pool workers and banded combines racing to force it raise
   CamlinternalLazy.Undefined — and the table costs ~1k flops, far
   below the price of any synchronisation that would make the lazy
   safe. *)
(* lint: domain-safe — written only during module init, read-only after *)
let log_factorial_table =
  let table = Array.make factorial_table_size 0. in
  for n = 1 to factorial_table_size - 1 do
    table.(n) <- table.(n - 1) +. log (float_of_int n)
  done;
  table

let log_factorial n =
  if n < 0 then invalid_arg "Special.log_factorial: negative"
  else if n < factorial_table_size then log_factorial_table.(n)
  else lgamma (float_of_int n +. 1.)

let log_permutations n k =
  if n < 0 || k < 0 then invalid_arg "Special.log_permutations: negative"
  else if k > n then neg_infinity
  else log_factorial n -. log_factorial (n - k)

(* Inlined, so a caller's chain of falling factorials makes no call and
   boxes no result (the concurrency chain of Convolution runs two per
   step). *)
let[@inline] permutations n k =
  if n < 0 || k < 0 then invalid_arg "Special.permutations: negative"
  else if k > n then 0.
  else begin
    let product = ref 1. in
    for i = 0 to k - 1 do
      product := !product *. float_of_int (n - i)
    done;
    !product
  end

let log_binomial n k =
  if n < 0 || k < 0 then invalid_arg "Special.log_binomial: negative"
  else if k > n then neg_infinity
  else log_factorial n -. log_factorial k -. log_factorial (n - k)

let binomial n k =
  if n < 0 || k < 0 then invalid_arg "Special.binomial: negative"
  else if k > n then 0.
  else begin
    (* Multiply ratios pairwise to stay close to the final magnitude. *)
    let k = if k > n - k then n - k else k in
    let product = ref 1. in
    for i = 1 to k do
      product := !product *. float_of_int (n - k + i) /. float_of_int i
    done;
    !product
  end

let log_rising_factorial c k =
  if c <= 0. then invalid_arg "Special.log_rising_factorial: c <= 0"
  else if k < 0 then invalid_arg "Special.log_rising_factorial: k < 0"
  else lgamma (c +. float_of_int k) -. lgamma c

(* Abramowitz & Stegun 7.1.26; |error| <= 1.5e-7. *)
let erf x =
  let sign = if x < 0. then -1. else 1. in
  let x = Float.abs x in
  let t = 1. /. (1. +. (0.3275911 *. x)) in
  (* Horner form of the published polynomial. *)
  let poly =
    t
    *. (0.254829592
       +. t
          *. (-0.284496736
             +. t *. (1.421413741 +. t *. (-1.453152027 +. t *. 1.061405429)))
       )
  in
  sign *. (1. -. (poly *. exp (-.x *. x)))

let erfc x = 1. -. erf x
