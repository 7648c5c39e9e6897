(* The fixed corpus of models that measures_corpus.exe pins bit for bit
   and that test_factor_tree checks the solver's oracles on.  It spans 8
   to 512 ports, per-pair loads from light to beyond the heaviest the
   factor tree solves, Poisson, Pascal and Bernoulli classes of
   bandwidths 1 to 4, and the capacity-planning shapes (8 classes on 256
   and 272 ports). *)

module Model = Crossbar.Model
module Traffic = Crossbar.Traffic

(* Per-pair rates shrink with the square of the switch size, so one
   multiplier means a similar occupancy at every size: [scaled ~size x]
   is [x] at 32 ports, divided by the nearest power of four of
   (size / 32)^2 elsewhere. *)
let scaled ~size x =
  let octaves = Float.round (Float.log2 (float_of_int size /. 32.)) in
  Float.ldexp x (-11 - (2 * truncate octaves))

let poisson ~name ~bandwidth rate =
  Traffic.poisson ~name ~bandwidth ~rate ~service_rate:1.0 ()

let pascal ~name ~bandwidth ~alpha ~beta =
  Traffic.pascal ~name ~bandwidth ~alpha ~beta ~service_rate:1.0 ()

(* [sources] sources at a power-of-two rate, so that alpha / -beta is
   exactly the source count. *)
let bernoulli ~name ~bandwidth ~sources ~rate =
  Traffic.bernoulli ~name ~bandwidth ~sources ~per_source_rate:rate
    ~service_rate:1.0 ()

(* Four classes, one of each kind plus a wide Poisson one: bandwidths
   1 to 4. *)
let mixed ~size load =
  let x = scaled ~size load in
  Model.square ~size
    ~classes:
      [
        poisson ~name:"p1" ~bandwidth:1 x;
        pascal ~name:"q2" ~bandwidth:2 ~alpha:(x /. 4.) ~beta:(x /. 16.);
        bernoulli ~name:"b3" ~bandwidth:3 ~sources:(size / 4)
          ~rate:(x /. 64.);
        poisson ~name:"p4" ~bandwidth:4 (x /. 256.);
      ]

(* One class of the given kind and bandwidth next to a Poisson
   background class. *)
let single ~size ~kind ~bandwidth load =
  let x = scaled ~size load in
  let own =
    match kind with
    | `Poisson -> poisson ~name:"own" ~bandwidth x
    | `Pascal -> pascal ~name:"own" ~bandwidth ~alpha:x ~beta:(x /. 2.)
    | `Bernoulli ->
        bernoulli ~name:"own" ~bandwidth ~sources:size
          ~rate:(Float.ldexp 1. (-14))
  in
  Model.square ~size ~classes:[ poisson ~name:"bg" ~bandwidth:1 x; own ]

(* The capacity-planning shape: 8 classes of bandwidth 1 or 2, every
   fourth one Pascal, class 0 carrying the swept load. *)
let planning ~size load =
  Model.square ~size
    ~classes:
      (List.init 8 (fun index ->
           let name = Printf.sprintf "k%d" index in
           let bandwidth = if index mod 2 = 0 then 1 else 2 in
           let base = 0.25 +. (0.125 *. float_of_int index) in
           let alpha = scaled ~size (if index = 0 then load else base) in
           if index mod 4 = 3 then
             pascal ~name ~bandwidth ~alpha ~beta:(scaled ~size (1. /. 64.))
           else poisson ~name ~bandwidth alpha))

(* The 512-port switch of the serve tests' flushed solve: bandwidths 1
   and 2, classes 0, 3 and 6 Pascal.  [scale] multiplies every rate. *)
let heavy ~scale =
  Model.square ~size:512
    ~classes:
      (List.init 8 (fun i ->
           let bandwidth = 1 + (i mod 2) in
           let alpha = scale *. 0.3 /. float_of_int (8 * bandwidth) in
           let name = Printf.sprintf "h%d" i in
           if i mod 3 = 0 then
             pascal ~name ~bandwidth ~alpha ~beta:(alpha /. 100.)
           else poisson ~name ~bandwidth alpha))

let corpus =
  List.concat
    [
      List.concat_map
        (fun size ->
          List.map
            (fun load ->
              (Printf.sprintf "mixed %d load %g" size load, mixed ~size load))
            [ 1. /. 1024.; 1. /. 32.; 1.; 32. ])
        [ 8; 32; 64; 128; 256; 512 ];
      List.concat_map
        (fun (kind, label) ->
          List.map
            (fun bandwidth ->
              ( Printf.sprintf "%s a=%d at 128" label bandwidth,
                single ~size:128 ~kind ~bandwidth 4. ))
            [ 1; 2; 3; 4 ])
        [
          (`Poisson, "poisson"); (`Pascal, "pascal"); (`Bernoulli, "bernoulli");
        ];
      List.concat_map
        (fun size ->
          List.map
            (fun load ->
              ( Printf.sprintf "planning %d load %g" size load,
                planning ~size load ))
            [ 0.25; 1.; 2.375 ])
        [ 256; 272 ];
      List.map
        (fun scale -> (Printf.sprintf "heavy 512 scale %g" scale, heavy ~scale))
        [ 0.1; 0.25; 0.5; 1. ];
    ]
