(* Shared test utilities: float comparisons with relative tolerance, qcheck
   adapters and small model builders used across suites. *)

let check_close ?(tol = 1e-9) label expected actual =
  let scale = Float.max (Float.abs expected) (Float.abs actual) in
  let close =
    if scale = 0. then true else Float.abs (expected -. actual) /. scale <= tol
  in
  if not close then
    Alcotest.failf "%s: expected %.17g, got %.17g (rel err %.3g > %.3g)" label
      expected actual
      (Float.abs (expected -. actual) /. scale)
      tol

let check_abs ?(tol = 1e-9) label expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.17g, got %.17g (abs err %.3g > %.3g)" label
      expected actual
      (Float.abs (expected -. actual))
      tol

let check_bool label expected actual = Alcotest.(check bool) label expected actual
let check_int label expected actual = Alcotest.(check int) label expected actual

let check_raises_invalid label f =
  match f () with
  | exception Invalid_argument _ -> ()
  | exception e ->
      Alcotest.failf "%s: expected Invalid_argument, got %s" label
        (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: expected Invalid_argument, got success" label

let contains text substring =
  let n = String.length substring and m = String.length text in
  let rec scan i =
    i + n <= m && (String.sub text i n = substring || scan (i + 1))
  in
  scan 0

(* Like [check_raises_invalid], but also requires the message to carry
   [substring] — validation errors must name the offending value. *)
let check_invalid_contains label ~substring f =
  match f () with
  | exception Invalid_argument message ->
      if not (contains message substring) then
        Alcotest.failf "%s: Invalid_argument %S does not mention %S" label
          message substring
  | exception e ->
      Alcotest.failf "%s: expected Invalid_argument, got %s" label
        (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: expected Invalid_argument, got success" label

let check_raises_failure label f =
  match f () with
  | exception Failure _ -> ()
  | exception e ->
      Alcotest.failf "%s: expected Failure, got %s" label
        (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: expected Failure, got success" label

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f
let qcheck t = QCheck_alcotest.to_alcotest t

(* The rescale chunks a combine borrows from operands [a] and [b]: one
   at a time, from the one whose peak is larger, until the product of
   the peaks is at most [Lattice.rescale_threshold] — the loop of
   [Convolution.combine_naive], returned as (chunks of [a], chunks of
   [b]). *)
let borrowed_chunks a b =
  let module Lattice = Crossbar.Lattice in
  let ka = ref 0 and kb = ref 0 in
  let ma = ref (Lattice.max_abs a) and mb = ref (Lattice.max_abs b) in
  while !ma *. !mb > Lattice.rescale_threshold do
    if !ma >= !mb then begin
      incr ka;
      ma := !ma *. Lattice.rescale_factor
    end
    else begin
      incr kb;
      mb := !mb *. Lattice.rescale_factor
    end
  done;
  (!ka, !kb)

(* Two profiles alike in capacity, stride, scale and every entry's
   bits. *)
let check_same_lattice label reference candidate =
  let module Lattice = Crossbar.Lattice in
  check_int (label ^ ": capacity") (Lattice.capacity reference)
    (Lattice.capacity candidate);
  check_int (label ^ ": stride") (Lattice.stride reference)
    (Lattice.stride candidate);
  check_int (label ^ ": scale") (Lattice.scale reference)
    (Lattice.scale candidate);
  for u = 0 to Lattice.capacity reference do
    let a = Lattice.get reference u and b = Lattice.get candidate u in
    if not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) then
      Alcotest.failf "%s: entry %d: %.17g and %.17g differ in bits" label u a
        b
  done

(* --- model builders shared by the solver suites --- *)

let poisson ?(name = "p") ?(bandwidth = 1) ?(mu = 1.0) rate =
  Crossbar.Traffic.poisson ~name ~bandwidth ~rate ~service_rate:mu ()

let pascal ?(name = "q") ?(bandwidth = 1) ?(mu = 1.0) ~alpha ~beta () =
  Crossbar.Traffic.pascal ~name ~bandwidth ~alpha ~beta ~service_rate:mu ()

let bernoulli ?(name = "b") ?(bandwidth = 1) ?(mu = 1.0) ~sources ~rate () =
  Crossbar.Traffic.bernoulli ~name ~bandwidth ~sources ~per_source_rate:rate
    ~service_rate:mu ()

let mixed_model ~inputs ~outputs =
  Crossbar.Model.create ~inputs ~outputs
    ~classes:
      [
        poisson ~name:"poisson" 0.3;
        pascal ~name:"pascal" ~bandwidth:2 ~mu:0.5 ~alpha:0.2 ~beta:0.15 ();
        bernoulli ~name:"bernoulli" ~mu:2.0 ~sources:5 ~rate:0.08 ();
      ]

(* Planning-size models: R classes on a [size]-port square switch.
   Background class [i] is Pascal (bandwidth 2) when [i mod 3 = 1], else
   Poisson of bandwidth 1 or 2.  [single_class_model] sweeps one Poisson
   class appended last; [multi_class_model] moves classes 0 and 1
   jointly (Poisson, bandwidths 1 and 2) and keeps the rest fixed. *)
let background_class ~prefix i =
  let name = Printf.sprintf "%s%d" prefix i in
  if i mod 3 = 1 then pascal ~name ~bandwidth:2 ~alpha:0.04 ~beta:0.01 ()
  else poisson ~name ~bandwidth:((i mod 2) + 1) 0.06

let single_class_model ~classes ~size load =
  Crossbar.Model.square ~size
    ~classes:
      (List.init (classes - 1) (background_class ~prefix:"bg")
      @ [ poisson ~name:"swept" load ])

let multi_class_model ~classes ~size load =
  Crossbar.Model.square ~size
    ~classes:
      (List.init classes (fun i ->
           if i = 0 then poisson ~name:"md0" load
           else if i = 1 then poisson ~name:"md1" ~bandwidth:2 (0.8 *. load)
           else background_class ~prefix:"md" i))

(* A heavy-traffic switch whose mass sits so far from the empty state
   that the factor tree's dynamic rescaling flushes G(N) to zero: 512 x
   512, class i of bandwidth 1 + (i mod 2) offering alpha = 0.3 / (8
   bandwidth) at mu = 1, classes 0, 3 and 6 Pascal with beta =
   alpha / 100.  MVA puts its blocking near 0.94.  [scale] multiplies
   every alpha (and beta); at 0.1 the factor tree solves it. *)
let heavy_model ?(scale = 1.0) () =
  Crossbar.Model.square ~size:512
    ~classes:
      (List.init 8 (fun i ->
           let bandwidth = 1 + (i mod 2) in
           let alpha = scale *. 0.3 /. float_of_int (8 * bandwidth) in
           let name = Printf.sprintf "h%d" i in
           if i mod 3 = 0 then
             pascal ~name ~bandwidth ~alpha ~beta:(alpha /. 100.) ()
           else poisson ~name ~bandwidth alpha))

(* Random small models for property-based cross-validation. *)
let random_model_gen =
  let open QCheck2.Gen in
  let* inputs = int_range 2 6 in
  let* outputs = int_range 2 6 in
  let* num_classes = int_range 1 3 in
  let class_gen index =
    let* bandwidth = int_range 1 2 in
    let* alpha = float_range 0.05 2.0 in
    let* mu = float_range 0.5 2.0 in
    let* kind = int_range 0 2 in
    let name = Printf.sprintf "c%d" index in
    match kind with
    | 0 ->
        return
          (Crossbar.Traffic.poisson ~name ~bandwidth ~rate:alpha
             ~service_rate:mu ())
    | 1 ->
        let* beta = float_range 0.01 0.5 in
        return
          (Crossbar.Traffic.pascal ~name ~bandwidth ~alpha ~beta
             ~service_rate:mu ())
    | _ ->
        let* sources = int_range 1 6 in
        return
          (Crossbar.Traffic.bernoulli ~name ~bandwidth ~sources
             ~per_source_rate:(alpha /. float_of_int sources)
             ~service_rate:mu ())
  in
  let* classes = flatten_l (List.init num_classes class_gen) in
  return (Crossbar.Model.create ~inputs ~outputs ~classes)

(* A pool of structurally diverse small models for cross-validation. *)
let validation_models () =
  [
    ("single poisson 4x4", Crossbar.Model.square ~size:4 ~classes:[ poisson 0.5 ]);
    ( "single pascal 5x5",
      Crossbar.Model.square ~size:5
        ~classes:[ pascal ~alpha:0.4 ~beta:0.3 () ] );
    ( "single bernoulli 4x4",
      Crossbar.Model.square ~size:4
        ~classes:[ bernoulli ~sources:3 ~rate:0.2 () ] );
    ("mixed 5x4", mixed_model ~inputs:5 ~outputs:4);
    ("mixed 4x7", mixed_model ~inputs:4 ~outputs:7);
    ( "multirate poisson 6x6",
      Crossbar.Model.square ~size:6
        ~classes:
          [ poisson ~name:"a1" 0.4; poisson ~name:"a3" ~bandwidth:3 0.9 ] );
    ( "wide bandwidth 7x5",
      Crossbar.Model.create ~inputs:7 ~outputs:5
        ~classes:
          [
            pascal ~name:"wide" ~bandwidth:4 ~alpha:0.6 ~beta:0.2 ();
            poisson ~name:"thin" 0.2;
          ] );
    ( "heavy load 3x3",
      Crossbar.Model.square ~size:3
        ~classes:[ poisson ~name:"hot" 4.0; pascal ~name:"burst" ~alpha:2.0 ~beta:0.9 () ]
    );
  ]
