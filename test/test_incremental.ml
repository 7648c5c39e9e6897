(* Bit-identity of the incremental solve layer.

   The contract under test is exact: Convolution.solve_delta must
   reproduce Convolution.solve bit for bit — every measure, every log G
   lattice entry, the rescale count — because the sweep cache files both
   under the same key and callers must not be able to tell hits, full
   solves and incremental solves apart.  Likewise Sweep.run with and
   without ~incremental, at any domain count, and run_replications at
   any domain count.  Random models and random class subsets are
   test_factor_tree's properties; this suite pins the deterministic
   cases and the engine-level sweeps. *)

module Conv = Crossbar.Convolution
module Model = Crossbar.Model
module Traffic = Crossbar.Traffic
module Solver = Crossbar.Solver
module Measures = Crossbar.Measures
module Sweep = Crossbar_engine.Sweep
module Cache = Crossbar_engine.Cache
module Sim = Crossbar_sim.Simulator

let bits = Int64.bits_of_float
let floats_identical a b = Int64.equal (bits a) (bits b)

let check_bits label a b =
  if not (floats_identical a b) then
    Alcotest.failf "%s: %.17g and %.17g differ in bits" label a b

let check_measures label (a : Measures.t) (b : Measures.t) =
  check_bits (label ^ ".busy_ports") a.Measures.busy_ports
    b.Measures.busy_ports;
  check_bits
    (label ^ ".input_utilization")
    a.Measures.input_utilization b.Measures.input_utilization;
  check_bits
    (label ^ ".output_utilization")
    a.Measures.output_utilization b.Measures.output_utilization;
  Helpers.check_int
    (label ^ ".class count")
    (Array.length a.Measures.per_class)
    (Array.length b.Measures.per_class);
  Array.iteri
    (fun r (ca : Measures.per_class) ->
      let cb = b.Measures.per_class.(r) in
      let field name = Printf.sprintf "%s.class %d.%s" label r name in
      check_bits (field "offered_load") ca.Measures.offered_load
        cb.Measures.offered_load;
      check_bits (field "non_blocking") ca.Measures.non_blocking
        cb.Measures.non_blocking;
      check_bits (field "blocking") ca.Measures.blocking cb.Measures.blocking;
      check_bits (field "concurrency") ca.Measures.concurrency
        cb.Measures.concurrency;
      check_bits (field "throughput") ca.Measures.throughput
        cb.Measures.throughput)
    a.Measures.per_class

(* Compare log G over the whole lattice; entries flushed by dynamic
   rescaling raise Failure on both sides or neither. *)
let check_lattice label model full inc =
  for n1 = 0 to Model.inputs model do
    for n2 = 0 to Model.outputs model do
      let entry t =
        match Conv.log_g t ~inputs:n1 ~outputs:n2 with
        | value -> Ok value
        | exception Failure _ -> Error ()
      in
      match (entry full, entry inc) with
      | Ok a, Ok b ->
          check_bits (Printf.sprintf "%s.log_g(%d,%d)" label n1 n2) a b
      | Error (), Error () -> ()
      | Ok _, Error () | Error (), Ok _ ->
          Alcotest.failf "%s: log_g(%d,%d) flushed on one side only" label n1
            n2
    done
  done

let check_solved label model full inc =
  check_bits
    (label ^ ".log_normalization")
    (Conv.log_normalization full) (Conv.log_normalization inc);
  Helpers.check_int (label ^ ".rescale_count") (Conv.rescale_count full)
    (Conv.rescale_count inc);
  check_measures label (Conv.measures full) (Conv.measures inc);
  check_lattice label model full inc

(* --- deterministic cases --- *)

let test_rescale_identity () =
  let model =
    Model.square ~size:32 ~classes:[ Helpers.poisson ~name:"hot" 1e10 ]
  in
  let previous = Conv.solve model in
  Helpers.check_bool "rescaling fired" true (Conv.rescale_count previous > 0);
  let changed = Model.map_class model 0 (fun c -> Traffic.scale_load c 1.5) in
  let inc = Conv.solve_delta ~previous changed in
  let full = Conv.solve changed in
  Helpers.check_bool "rescaling still fires" true (Conv.rescale_count full > 0);
  check_solved "rescale" changed full inc

let test_bandwidth_change () =
  let base =
    Model.square ~size:6
      ~classes:
        [
          Helpers.poisson ~name:"thin" 0.4;
          Helpers.pascal ~name:"wide" ~alpha:0.3 ~beta:0.2 ();
        ]
  in
  let changed =
    Model.map_class base 1 (fun c ->
        Traffic.create ~name:c.Traffic.name ~bandwidth:2 ~alpha:c.Traffic.alpha
          ~beta:c.Traffic.beta ~service_rate:c.Traffic.service_rate ())
  in
  (match Model.single_class_delta base changed with
  | Some 1 -> ()
  | _ -> Alcotest.fail "bandwidth change not detected as a class-1 delta");
  let previous = Conv.solve base in
  let inc = Conv.solve_delta ~previous changed in
  let full = Conv.solve changed in
  check_solved "bandwidth" changed full inc

let test_single_class_delta_identical_is_none () =
  let model = Helpers.mixed_model ~inputs:5 ~outputs:4 in
  Helpers.check_bool "identical models give None" true
    (Model.single_class_delta model model = None)

(* --- sweep engine: ~incremental and domain count change nothing --- *)

let load_sweep_points count =
  List.init count (fun i ->
      let load = 0.1 +. (0.05 *. float_of_int i) in
      Sweep.point ~algorithm:Solver.Convolution
        ~label:(Printf.sprintf "load=%.2f" load)
        (Model.square ~size:8
           ~classes:
             [
               Helpers.poisson ~name:"bg" 0.2;
               Helpers.pascal ~name:"swept" ~alpha:load ~beta:(load /. 4.) ();
             ]))

let check_outcomes label (a : Sweep.outcome array) (b : Sweep.outcome array) =
  Helpers.check_int (label ^ ".length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i (x : Sweep.outcome) ->
      let y = b.(i) in
      let field name = Printf.sprintf "%s.point %d.%s" label i name in
      check_bits
        (field "log_normalization")
        x.Sweep.solution.Solver.log_normalization
        y.Sweep.solution.Solver.log_normalization;
      Helpers.check_int (field "rescales") x.Sweep.solution.Solver.rescales
        y.Sweep.solution.Solver.rescales;
      check_measures (field "measures") (Sweep.measures x) (Sweep.measures y))
    a

(* Full vs incremental at planning size: 50 load points on a 48-port
   switch, one domain each, fresh caches, at R = 2, 4 and 8 classes.
   Every point after the first must chain off its predecessor. *)
let check_planning_sweep label points =
  let full = Sweep.run ~domains:1 ~cache:(Cache.create ()) points in
  let inc =
    Sweep.run ~domains:1 ~cache:(Cache.create ()) ~incremental:true points
  in
  check_outcomes label full inc;
  Array.iteri
    (fun i (o : Sweep.outcome) ->
      Helpers.check_bool
        (Printf.sprintf "%s point %d from_incremental" label i)
        (i > 0) o.Sweep.from_incremental)
    inc

let planning_classes = [ 2; 4; 8 ]

let planning_points ~classes model_of_load =
  List.init 50 (fun i ->
      let load = 0.05 +. (0.01 *. float_of_int i) in
      Sweep.point ~algorithm:Solver.Convolution
        ~label:(Printf.sprintf "R=%d load=%.2f" classes load)
        (model_of_load ~classes ~size:48 load))

let test_sweep_incremental_bit_identical () =
  List.iter
    (fun classes ->
      check_planning_sweep
        (Printf.sprintf "single-class R=%d" classes)
        (planning_points ~classes Helpers.single_class_model))
    planning_classes;
  let points = load_sweep_points 12 in
  let baseline = Sweep.run ~domains:1 ~cache:(Cache.create ()) points in
  let inc1 =
    Sweep.run ~domains:1 ~cache:(Cache.create ()) ~incremental:true points
  in
  let inc3 =
    Sweep.run ~domains:3 ~cache:(Cache.create ()) ~incremental:true points
  in
  check_outcomes "incremental domains=1" baseline inc1;
  check_outcomes "incremental domains=3" baseline inc3;
  Array.iteri
    (fun i (o : Sweep.outcome) ->
      Helpers.check_bool
        (Printf.sprintf "baseline point %d not incremental" i)
        false o.Sweep.from_incremental)
    baseline;
  List.iter
    (fun (name, outcomes) ->
      Array.iteri
        (fun i (o : Sweep.outcome) ->
          Helpers.check_bool
            (Printf.sprintf "%s point %d from_incremental" name i)
            (i > 0) o.Sweep.from_incremental)
        outcomes)
    [ ("domains=1", inc1); ("domains=3", inc3) ]

(* Chains are no longer restricted to single-class deltas: here every
   point changes BOTH classes relative to its neighbour, and the whole
   run must still chain incrementally and stay bit-identical. *)
let multi_class_sweep_points count =
  List.init count (fun i ->
      let load = 0.1 +. (0.05 *. float_of_int i) in
      Sweep.point ~algorithm:Solver.Convolution
        ~label:(Printf.sprintf "load=%.2f" load)
        (Model.square ~size:8
           ~classes:
             [
               Helpers.poisson ~name:"bg" (0.2 +. (load /. 10.));
               Helpers.pascal ~name:"swept" ~alpha:load ~beta:(load /. 4.) ();
             ]))

let test_sweep_multi_class_chain () =
  List.iter
    (fun classes ->
      check_planning_sweep
        (Printf.sprintf "multi-class R=%d" classes)
        (planning_points ~classes Helpers.multi_class_model))
    planning_classes;
  let points = multi_class_sweep_points 10 in
  (match points with
  | first :: second :: _ ->
      (match Model.class_delta first.Sweep.model second.Sweep.model with
      | Some [ 0; 1 ] -> ()
      | _ -> Alcotest.fail "expected both classes to change between points")
  | _ -> assert false);
  let baseline = Sweep.run ~domains:1 ~cache:(Cache.create ()) points in
  let inc =
    Sweep.run ~domains:1 ~cache:(Cache.create ()) ~incremental:true points
  in
  check_outcomes "multi-class chain" baseline inc;
  Array.iteri
    (fun i (o : Sweep.outcome) ->
      Helpers.check_bool
        (Printf.sprintf "point %d chains incrementally" i)
        (i > 0) o.Sweep.from_incremental)
    inc

(* --- simulator: replication results independent of domain count --- *)

let check_estimates label (a : Sim.estimate array) (b : Sim.estimate array) =
  Helpers.check_int (label ^ ".length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i (x : Sim.estimate) ->
      let y = b.(i) in
      check_bits (Printf.sprintf "%s.%d.point" label i) x.Sim.point y.Sim.point;
      check_bits
        (Printf.sprintf "%s.%d.halfwidth" label i)
        x.Sim.halfwidth y.Sim.halfwidth)
    a

let check_replications label ~replications ~domains config =
  let sequential = Sim.run_replications ~domains:1 ~replications config in
  let parallel = Sim.run_replications ~domains ~replications config in
  let field name = Printf.sprintf "%s domains=%d %s" label domains name in
  Helpers.check_int (field "replications") sequential.Sim.replications
    parallel.Sim.replications;
  check_estimates (field "time_congestion") sequential.Sim.rep_time_congestion
    parallel.Sim.rep_time_congestion;
  check_estimates (field "call_congestion") sequential.Sim.rep_call_congestion
    parallel.Sim.rep_call_congestion;
  check_estimates (field "concurrency") sequential.Sim.rep_concurrency
    parallel.Sim.rep_concurrency

let test_replications_domain_independent () =
  let model = Helpers.mixed_model ~inputs:5 ~outputs:4 in
  check_replications "mixed 5x4" ~replications:4 ~domains:3
    {
      (Sim.default_config model) with
      horizon = 500.;
      warmup = 50.;
      batches = 3;
    };
  (* Eight replications of a 6x6 Poisson + Pascal switch, split over two
     and over three domains (uneven shares). *)
  let model =
    Model.square ~size:6
      ~classes:
        [
          Helpers.poisson ~name:"p" 0.4;
          Helpers.pascal ~name:"q" ~bandwidth:2 ~alpha:0.1 ~beta:0.05 ();
        ]
  in
  List.iter
    (fun domains ->
      check_replications "6x6" ~replications:8 ~domains
        {
          (Sim.default_config model) with
          horizon = 2e3;
          warmup = 100.;
          batches = 5;
        })
    [ 2; 3 ]

let () =
  Alcotest.run "incremental"
    [
      ( "bit-identity",
        [
          Helpers.case "rescaling regime, deterministic" test_rescale_identity;
          Helpers.case "bandwidth change re-solves one factor"
            test_bandwidth_change;
        ] );
      ( "validation",
        [
          Helpers.case "identical models are not a delta"
            test_single_class_delta_identical_is_none;
        ] );
      ( "engine",
        [
          Helpers.case "sweep incremental/domains bit-identical"
            test_sweep_incremental_bit_identical;
          Helpers.case "sweep chains multi-class deltas"
            test_sweep_multi_class_chain;
          Helpers.case "run_replications domain-independent"
            test_replications_domain_independent;
        ] );
    ]
