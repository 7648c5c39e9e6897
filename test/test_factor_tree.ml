(* The factor tree is the convolution solver: every solve walks the same
   balanced combine tree, so a full build and a delta re-solve of any
   subset of classes must agree bit for bit — on every measure, every
   log G lattice entry and the rescale count.  The leave-one-out sweep
   and the diagonal depth walk are then cross-checked against the
   independent oracles (Occupancy, Brute_force, the legacy
   two-solve shadow-cost path). *)

module Conv = Crossbar.Convolution
module Tree = Crossbar.Convolution.Factor_tree
module Model = Crossbar.Model
module Traffic = Crossbar.Traffic
module Solver = Crossbar.Solver
module Measures = Crossbar.Measures
module Revenue = Crossbar.Revenue
module Occupancy = Crossbar.Occupancy
module Brute = Crossbar.Brute
module State_space = Crossbar_markov.State_space
module Lattice = Crossbar.Lattice
module Special = Crossbar_numerics.Special
module Logspace = Crossbar_numerics.Logspace

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

let scale_class r factor model =
  Model.map_class model r (fun c -> Traffic.scale_load c factor)

(* --- property: delta re-solves of ANY class subset are bit-identical --- *)

let multi_delta_gen =
  let open QCheck2.Gen in
  let* model = Helpers.random_model_gen in
  let n = Model.num_classes model in
  let* forced = int_bound (n - 1) in
  let* flips = flatten_l (List.init n (fun _ -> bool)) in
  let* factors = flatten_l (List.init n (fun _ -> float_range 0.3 3.0)) in
  let changed = ref model in
  List.iteri
    (fun r flip ->
      if flip || r = forced then
        changed := scale_class r (List.nth factors r) !changed)
    flips;
  return (model, !changed)

let prop_delta_matches_full =
  QCheck2.Test.make ~count:60
    ~name:"solve_delta bit-identical to solve (any class subset)"
    multi_delta_gen
    (fun (model, changed) ->
      let previous = Conv.solve model in
      let inc = Conv.solve_delta ~previous changed in
      let full = Conv.solve changed in
      check_solved "delta" changed full inc;
      (* Chain a second hop back: two updates vs the original build. *)
      let back = Conv.solve_delta ~previous:inc model in
      check_solved "delta back" model previous back;
      true)

(* Same property where Section 6 dynamic rescaling fires, with two
   classes changing at once. *)
let rescaling_multi_gen =
  let open QCheck2.Gen in
  let* size = int_range 24 36 in
  let* rate = float_range 1e8 1e12 in
  let* f0 = float_range 0.5 2.0 in
  let* f1 = float_range 0.5 2.0 in
  let model =
    Model.square ~size
      ~classes:
        [
          Helpers.poisson ~name:"hot" rate;
          Helpers.pascal ~name:"warm" ~bandwidth:2 ~alpha:0.2 ~beta:0.1 ();
          Helpers.poisson ~name:"mid" ~bandwidth:3 (rate /. 100.);
        ]
  in
  let changed = scale_class 1 f1 (scale_class 0 f0 model) in
  return (model, changed)

let prop_delta_matches_full_rescaled =
  QCheck2.Test.make ~count:10
    ~name:"solve_delta bit-identical under dynamic rescaling (two classes)"
    rescaling_multi_gen
    (fun (model, changed) ->
      let previous = Conv.solve model in
      if Conv.rescale_count previous = 0 then
        QCheck2.Test.fail_report "expected rescaling to fire";
      let inc = Conv.solve_delta ~previous changed in
      let full = Conv.solve changed in
      check_solved "rescaled delta" changed full inc;
      true)

(* --- exact combine counts: the tree does only the promised work --- *)

let n_class_model n =
  Model.square ~size:10
    ~classes:
      (List.init n (fun r ->
           Helpers.poisson
             ~name:(Printf.sprintf "c%d" r)
             ~bandwidth:((r mod 2) + 1)
             (0.1 +. (0.05 *. float_of_int r))))

let test_combine_counts () =
  let model = n_class_model 8 in
  let tree = Tree.build model in
  Helpers.check_int "build combines (R-1)" 7 (Tree.combines tree);
  Helpers.check_int "depth (ceil log2 R)" 3 (Tree.depth tree);
  Helpers.check_int "num_classes" 8 (Tree.num_classes tree);
  let count changes =
    let changed = List.fold_left (fun m (r, f) -> scale_class r f m) model changes in
    Tree.combines (Tree.update tree changed)
  in
  Helpers.check_int "update {0}: one root path" 3 (count [ (0, 1.5) ]);
  Helpers.check_int "update {7}: one root path" 3 (count [ (7, 1.5) ]);
  Helpers.check_int "update {0,1}: shared path" 3 (count [ (0, 1.5); (1, 0.5) ]);
  Helpers.check_int "update {0,7}: disjoint until root" 5
    (count [ (0, 1.5); (7, 0.5) ]);
  Helpers.check_int "update all: full rebuild" 7
    (count (List.init 8 (fun r -> (r, 1.5))));
  Helpers.check_int "update with no change" 0
    (Tree.combines (Tree.update tree (n_class_model 8)));
  Helpers.check_int "complement per class" 8
    (Array.length (Tree.leave_one_out tree))

let test_combine_counts_odd () =
  (* R = 5: the trailing leaf is carried up by sharing, never combined
     against a dummy — a build still costs exactly R - 1 and updating
     the carried class touches only the root combine. *)
  let model = n_class_model 5 in
  let tree = Tree.build model in
  Helpers.check_int "build combines (R-1)" 4 (Tree.combines tree);
  Helpers.check_int "depth" 3 (Tree.depth tree);
  let updated = Tree.update tree (scale_class 4 1.5 model) in
  Helpers.check_int "update carried leaf: root combine only" 1
    (Tree.combines updated);
  check_solved "carried-leaf update" (Tree.model updated)
    (Conv.solve (scale_class 4 1.5 model))
    (Conv.solve_delta ~previous:(Conv.solve model) (scale_class 4 1.5 model))

let test_update_validation () =
  let model = n_class_model 8 in
  let tree = Tree.build model in
  Helpers.check_raises_invalid "dimensions differ" (fun () ->
      let wider =
        Model.create ~inputs:11 ~outputs:10
          ~classes:(Array.to_list (Model.classes model))
      in
      ignore (Tree.update tree wider));
  Helpers.check_raises_invalid "class count differs" (fun () ->
      let fewer =
        Model.square ~size:10
          ~classes:
            (List.filteri (fun i _ -> i < 7)
               (Array.to_list (Model.classes model)))
      in
      ignore (Tree.update tree fewer));
  Helpers.check_raises_invalid "leaf index out of range" (fun () ->
      ignore (Tree.leaf tree 8))

(* --- the depth walk: all reduced switches from one diagonal --- *)

let test_depth_zero_matches_measures () =
  List.iter
    (fun (label, model) ->
      let t = Conv.solve model in
      let at_zero = Conv.concurrencies_at_depth t ~depth:0 in
      Array.iteri
        (fun r e ->
          check_bits
            (Printf.sprintf "%s.class %d depth-0 concurrency" label r)
            (Conv.measures t).Measures.per_class.(r).Measures.concurrency e)
        at_zero;
      Helpers.check_raises_invalid "depth past capacity" (fun () ->
          ignore
            (Conv.concurrencies_at_depth t ~depth:(Model.capacity model + 1)));
      Helpers.check_raises_invalid "negative depth" (fun () ->
          ignore (Conv.concurrencies_at_depth t ~depth:(-1))))
    (Helpers.validation_models ())

(* When the reduced switch is non-empty but a wide class can no longer
   fit, the legacy [reduced_model] rejects it; physically that class
   simply contributes zero concurrency, so dropping it from the reduced
   model yields the same W (its state space is unchanged).  This
   computes W(N) - W(N - ports I) through that independent re-solve. *)
let shadow_cost_without_unfittable model ~weights ~ports =
  let capacity =
    min (Model.inputs model - ports) (Model.outputs model - ports)
  in
  let keep = ref [] in
  Array.iteri
    (fun r (c : Traffic.t) ->
      if c.Traffic.bandwidth <= capacity then keep := (r, c) :: !keep)
    (Model.classes model);
  let kept = List.rev !keep in
  let sub_model =
    Model.create ~inputs:(Model.inputs model) ~outputs:(Model.outputs model)
      ~classes:(List.map snd kept)
  in
  let sub_weights = Array.of_list (List.map (fun (r, _) -> weights.(r)) kept) in
  Revenue.total ~algorithm:Solver.Convolution model ~weights
  -. Revenue.total ~algorithm:Solver.Convolution
       (Revenue.reduced_model sub_model ~ports)
       ~weights:sub_weights

(* R-class mixed models on a 32-port switch: distinct loads per class and
   bandwidths cycling 1-3, so the two-solve path needs several distinct
   reduced switches. *)
let gradient_models () =
  List.map
    (fun classes ->
      ( Printf.sprintf "gradient R=%d 32x32" classes,
        Model.square ~size:32
          ~classes:
            (List.init classes (fun i ->
                 let name = Printf.sprintf "g%d" i in
                 if i mod 3 = 1 then
                   Helpers.pascal ~name ~bandwidth:2 ~alpha:0.05 ~beta:0.01 ()
                 else
                   Helpers.poisson ~name
                     ~bandwidth:((i mod 3) + 1)
                     (0.04 +. (0.01 *. float_of_int i)))) ))
    [ 2; 4; 8 ]

let test_shadow_costs_match_legacy () =
  List.iter
    (fun (label, model) ->
      let weights =
        Array.init (Model.num_classes model) (fun r ->
            1. /. float_of_int (r + 1))
      in
      let batched = Revenue.shadow_costs model ~weights in
      Array.iteri
        (fun r delta ->
          let expected =
            match
              Revenue.shadow_cost ~algorithm:Solver.Convolution model ~weights
                ~class_index:r
            with
            | v -> v
            | exception Invalid_argument _ ->
                shadow_cost_without_unfittable model ~weights
                  ~ports:(Model.bandwidth model r)
          in
          Helpers.check_close ~tol:1e-9
            (Printf.sprintf "%s.class %d shadow cost" label r)
            expected delta)
        batched)
    (Helpers.validation_models () @ gradient_models ())

let test_shadow_cost_emptied_switch () =
  (* Reducing by the fat class's bandwidth empties the switch: the
     reduced model does not exist and the whole return is at stake. *)
  let model =
    Model.square ~size:2
      ~classes:
        [ Helpers.poisson ~name:"fat" ~bandwidth:2 0.5; Helpers.poisson 0.3 ]
  in
  let weights = [| 1.0; 0.5 |] in
  Helpers.check_raises_invalid "reduced_model rejects empty switch" (fun () ->
      ignore (Revenue.reduced_model model ~ports:2));
  let batched = Revenue.shadow_costs model ~weights in
  let total = Revenue.total ~algorithm:Solver.Convolution model ~weights in
  Helpers.check_close ~tol:1e-12 "emptied switch charges W(N)" total
    batched.(0);
  Helpers.check_close ~tol:1e-9 "legacy path agrees"
    (Revenue.shadow_cost ~algorithm:Solver.Convolution model ~weights
       ~class_index:0)
    batched.(0)

let test_gradient_matches_gradient_rho () =
  List.iter
    (fun (label, model) ->
      let weights =
        Array.init (Model.num_classes model) (fun r ->
            1. /. float_of_int (r + 1))
      in
      let gradient = Revenue.gradient model ~weights in
      Array.iteri
        (fun r entry ->
          match entry with
          | Some value ->
              Helpers.check_bool
                (Printf.sprintf "%s.class %d closed form => poisson" label r)
                true (Model.is_poisson model r);
              Helpers.check_close ~tol:1e-9
                (Printf.sprintf "%s.class %d gradient" label r)
                (Revenue.gradient_rho ~algorithm:Solver.Convolution model
                   ~weights ~class_index:r)
                value
          | None ->
              Helpers.check_bool
                (Printf.sprintf "%s.class %d bursty => None" label r)
                false (Model.is_poisson model r))
        gradient)
    (Helpers.validation_models ())

(* --- batched marginals vs the independent oracles --- *)

let brute_marginal model ~class_index =
  let space, pi = Brute.distribution model in
  let a = Model.bandwidth model class_index in
  let probabilities = Array.make ((Model.capacity model / a) + 1) 0. in
  State_space.iter space (fun i k ->
      probabilities.(k.(class_index)) <-
        probabilities.(k.(class_index)) +. pi.(i));
  probabilities

let test_distributions_match_occupancy_and_brute () =
  List.iter
    (fun (label, model) ->
      let t = Conv.solve model in
      let distributions = Conv.per_class_distributions t in
      Helpers.check_int (label ^ ": one distribution per class")
        (Model.num_classes model)
        (Array.length distributions);
      Array.iteri
        (fun r (d : Measures.distribution) ->
          let field name = Printf.sprintf "%s.class %d.%s" label r name in
          Helpers.check_int (field "class_index") r d.Measures.class_index;
          Helpers.check_int (field "bandwidth")
            (Model.bandwidth model r)
            d.Measures.bandwidth;
          let occupancy = Occupancy.class_distribution model ~class_index:r in
          Helpers.check_int (field "length") (Array.length occupancy)
            (Array.length d.Measures.probabilities);
          Array.iteri
            (fun m p ->
              Helpers.check_close ~tol:1e-9
                (field (Printf.sprintf "p(k=%d) vs occupancy" m))
                p
                d.Measures.probabilities.(m))
            occupancy;
          let brute = brute_marginal model ~class_index:r in
          Array.iteri
            (fun m p ->
              Helpers.check_close ~tol:1e-9
                (field (Printf.sprintf "p(k=%d) vs brute" m))
                p
                d.Measures.probabilities.(m))
            brute;
          Helpers.check_close ~tol:1e-9 (field "mean = E_r")
            (Conv.measures t).Measures.per_class.(r).Measures.concurrency
            d.Measures.mean)
        distributions)
    (Helpers.validation_models ())

let test_distribution_of_weights_validation () =
  let model = Helpers.mixed_model ~inputs:5 ~outputs:4 in
  Helpers.check_raises_invalid "class index out of range" (fun () ->
      ignore
        (Measures.distribution_of_weights ~model ~class_index:9
           ~weights:[| 1. |]));
  Helpers.check_raises_invalid "empty weights" (fun () ->
      ignore
        (Measures.distribution_of_weights ~model ~class_index:0 ~weights:[||]));
  Helpers.check_raises_invalid "negative weight" (fun () ->
      ignore
        (Measures.distribution_of_weights ~model ~class_index:0
           ~weights:[| 1.; -0.5 |]));
  Helpers.check_raises_invalid "non-finite weight" (fun () ->
      ignore
        (Measures.distribution_of_weights ~model ~class_index:0
           ~weights:[| Float.nan |]));
  Helpers.check_raises_failure "all-zero weights (flushed marginal)"
    (fun () ->
      ignore
        (Measures.distribution_of_weights ~model ~class_index:0
           ~weights:[| 0.; 0. |]))

(* --- lattice edge cases --- *)

let test_single_class_models () =
  List.iter
    (fun (label, model) ->
      let t = Conv.solve model in
      let tree = Conv.tree t in
      Helpers.check_int (label ^ ": build needs no combine") 0
        (Tree.combines tree);
      Helpers.check_int (label ^ ": depth 0") 0 (Tree.depth tree);
      Helpers.check_int (label ^ ": one complement") 1
        (Array.length (Tree.leave_one_out tree));
      let brute = Brute.solve model in
      Helpers.check_close ~tol:1e-9 (label ^ ": blocking vs brute")
        brute.Measures.per_class.(0).Measures.blocking
        (Conv.measures t).Measures.per_class.(0).Measures.blocking;
      Helpers.check_close ~tol:1e-9 (label ^ ": concurrency vs brute")
        brute.Measures.per_class.(0).Measures.concurrency
        (Conv.measures t).Measures.per_class.(0).Measures.concurrency;
      let changed = scale_class 0 1.7 model in
      check_solved (label ^ ": delta on the only class") changed
        (Conv.solve changed)
        (Conv.solve_delta ~previous:t changed))
    [
      ("poisson 4x4", Model.square ~size:4 ~classes:[ Helpers.poisson 0.5 ]);
      ( "pascal 5x5",
        Model.square ~size:5 ~classes:[ Helpers.pascal ~alpha:0.4 ~beta:0.3 () ]
      );
      ( "whole-switch bandwidth 3x3",
        Model.square ~size:3
          ~classes:[ Helpers.poisson ~name:"whole" ~bandwidth:3 0.7 ] );
    ]

let test_capacity_exactly_consumed () =
  (* One connection of the fat class consumes every port: its marginal
     has exactly two support points and all solvers still agree. *)
  let model =
    Model.square ~size:3
      ~classes:
        [
          Helpers.poisson ~name:"whole" ~bandwidth:3 0.7;
          Helpers.poisson ~name:"thin" 0.4;
        ]
  in
  let t = Conv.solve model in
  Helpers.check_close ~tol:1e-9 "log G vs brute"
    (Brute.log_g model ~inputs:3 ~outputs:3)
    (Conv.log_normalization t);
  let d = (Conv.per_class_distributions t).(0) in
  Helpers.check_int "two support points" 2
    (Array.length d.Measures.probabilities);
  Helpers.check_close ~tol:1e-9 "support sums to one" 1.0
    (Array.fold_left ( +. ) 0. d.Measures.probabilities);
  let changed = scale_class 1 2.5 (scale_class 0 2.0 model) in
  check_solved "both classes change" changed
    (Conv.solve changed)
    (Conv.solve_delta ~previous:t changed)

let test_rescale_exponent_cancellation () =
  (* Loads so large the factors blow past the rescale threshold on a
     switch small enough for the log-space brute oracle: the rescale
     exponents must cancel out of every corner measure. *)
  let model =
    Model.square ~size:6
      ~classes:
        [
          Helpers.poisson ~name:"huge" 1e43;
          Helpers.poisson ~name:"side" ~bandwidth:2 (1e43 /. 7.);
        ]
  in
  let t = Conv.solve model in
  Helpers.check_bool "rescaling fired" true (Conv.rescale_count t > 0);
  Helpers.check_close ~tol:1e-9 "log G vs brute"
    (Brute.log_g model ~inputs:6 ~outputs:6)
    (Conv.log_normalization t);
  let brute = Brute.solve model in
  Array.iteri
    (fun r (c : Measures.per_class) ->
      Helpers.check_close ~tol:1e-9
        (Printf.sprintf "class %d blocking vs brute" r)
        c.Measures.blocking
        (Conv.measures t).Measures.per_class.(r).Measures.blocking;
      Helpers.check_close ~tol:1e-9
        (Printf.sprintf "class %d concurrency vs brute" r)
        c.Measures.concurrency
        (Conv.measures t).Measures.per_class.(r).Measures.concurrency)
    brute.Measures.per_class;
  (* Delta re-solves stay bit-identical on both sides of the threshold:
     shrinking the loads back out of the rescaling regime and forth. *)
  let calm = scale_class 1 1e-40 (scale_class 0 1e-40 model) in
  check_solved "rescaled -> calm" calm
    (Conv.solve calm)
    (Conv.solve_delta ~previous:t calm);
  let back = Conv.solve_delta ~previous:(Conv.solve calm) model in
  check_solved "calm -> rescaled" model t back

(* --- diagonal: per-context ratio table vs the division recurrence --- *)

(* The diagonal pass as it ran before the ratio table: the running
   product ratio_j(u) recomputed with its divisions on every solve.
   Kept here as the bit-identity oracle for the table-driven pass, in
   the spirit of [Conv.combine_naive]. *)
let reference_diagonal t =
  let model = Conv.model t in
  let n1 = Model.inputs model and n2 = Model.outputs model in
  let cap = min n1 n2 in
  let h = Tree.root (Conv.tree t) in
  Array.init (cap + 1) (fun j ->
      let sum = ref (Lattice.get h 0) in
      let ratio = ref 1. in
      for u = 1 to cap - j do
        let i = u - 1 in
        ratio :=
          !ratio
          *. (float_of_int (n1 - j - i) /. float_of_int (n1 - i))
          *. (float_of_int (n2 - j - i) /. float_of_int (n2 - i));
        sum := !sum +. (Lattice.get h u *. !ratio)
      done;
      !sum)

(* The solver's concurrency chain at [depth], fed the reference diagonal. *)
let reference_concurrency model diag ~depth r =
  let a = Model.bandwidth model r in
  let rho = Model.rho model r in
  let b_over_mu = Model.beta_over_mu model r in
  let n1 = Model.inputs model - depth and n2 = Model.outputs model - depth in
  let budget = max (-1) (min n1 n2) in
  let e = ref 0. in
  for m = budget / a downto 0 do
    let j = depth + (m * a) in
    let here = diag.(j) in
    let down = if (m + 1) * a > budget then 0. else diag.(j + a) in
    if here > 0. && Float.is_finite here && Float.is_finite down then
      e :=
        Special.permutations (n1 - (m * a)) a
        *. Special.permutations (n2 - (m * a)) a
        *. (down /. here)
        *. (rho +. (b_over_mu *. !e))
    else e := 0.
  done;
  !e

let check_diagonal_outputs label t =
  let model = Conv.model t in
  let diag = reference_diagonal t in
  let cap = Array.length diag - 1 in
  Array.iteri
    (fun r (c : Measures.per_class) ->
      let a = Model.bandwidth model r in
      let expected =
        if Model.inputs model < a || Model.outputs model < a then 0.
        else diag.(a) /. diag.(0)
      in
      check_bits
        (Printf.sprintf "%s.class %d non_blocking" label r)
        expected c.Measures.non_blocking)
    (Conv.measures t).Measures.per_class;
  for depth = 0 to cap do
    Array.iteri
      (fun r e ->
        check_bits
          (Printf.sprintf "%s.depth %d class %d concurrency" label depth r)
          (reference_concurrency model diag ~depth r)
          e)
      (Conv.concurrencies_at_depth t ~depth)
  done;
  (* ratio_0(u) is exactly 1, so diag.(0) is also the sum [log_g] forms
     at the corner: both recurrences must agree on log G bit for bit. *)
  check_bits (label ^ ".log_normalization")
    (Logspace.log_checked diag.(0)
    -. Lattice.log_scale (Tree.root (Conv.tree t)))
    (Conv.log_normalization t)

let test_diagonal_matches_division_recurrence () =
  List.iter
    (fun (inputs, outputs) ->
      let model =
        Model.create ~inputs ~outputs
          ~classes:
            ([
               Helpers.poisson ~name:"poisson" 0.3;
               Helpers.pascal ~name:"pascal" ~mu:0.5 ~alpha:0.2 ~beta:0.15
                 ();
               Helpers.bernoulli ~name:"bernoulli" ~mu:2.0 ~sources:5
                 ~rate:0.08 ();
             ]
            @
            if min inputs outputs < 2 then []
            else [ Helpers.poisson ~name:"wide" ~bandwidth:2 0.1 ])
      in
      check_diagonal_outputs
        (Printf.sprintf "%dx%d" inputs outputs)
        (Conv.solve model))
    [ (1, 2); (63, 65); (67, 64); (256, 259); (275, 272) ]

let test_diagonal_matches_under_rescaling () =
  let model =
    Model.create ~inputs:64 ~outputs:61
      ~classes:
        [
          Helpers.poisson ~name:"hot" 1e12;
          Helpers.pascal ~name:"warm" ~bandwidth:2 ~alpha:0.2 ~beta:0.1 ();
          Helpers.poisson ~name:"wide" ~bandwidth:3 1e10;
        ]
  in
  let t = Conv.solve model in
  Helpers.check_bool "rescaling fired" true (Conv.rescale_count t > 0);
  check_diagonal_outputs "rescaled 64x61" t;
  (* A recycled delta re-solve reuses the arena's diagonal storage. *)
  let changed = scale_class 0 0.5 model in
  check_diagonal_outputs "rescaled delta"
    (Conv.solve_delta ~recycle:true ~previous:t changed)

let () =
  Alcotest.run "factor-tree"
    [
      ( "bit-identity",
        [
          Helpers.qcheck prop_delta_matches_full;
          Helpers.qcheck prop_delta_matches_full_rescaled;
        ] );
      ( "combine counts",
        [
          Helpers.case "R=8 build/update/leave-one-out" test_combine_counts;
          Helpers.case "R=5 carried leaf" test_combine_counts_odd;
          Helpers.case "update rejects incompatible models"
            test_update_validation;
        ] );
      ( "depth walk",
        [
          Helpers.case "depth 0 reproduces measures bitwise"
            test_depth_zero_matches_measures;
          Helpers.case "batched shadow costs vs two-solve path"
            test_shadow_costs_match_legacy;
          Helpers.case "emptied switch charges W(N)"
            test_shadow_cost_emptied_switch;
          Helpers.case "batched gradient vs gradient_rho"
            test_gradient_matches_gradient_rho;
        ] );
      ( "marginals",
        [
          Helpers.case "per-class distributions vs occupancy and brute"
            test_distributions_match_occupancy_and_brute;
          Helpers.case "distribution_of_weights validation"
            test_distribution_of_weights_validation;
        ] );
      ( "diagonal",
        [
          Helpers.case "ratio table bit-identical to the division recurrence"
            test_diagonal_matches_division_recurrence;
          Helpers.case "ratio table bit-identical under dynamic rescaling"
            test_diagonal_matches_under_rescaling;
        ] );
      ( "edge cases",
        [
          Helpers.case "single-class models" test_single_class_models;
          Helpers.case "capacity exactly consumed"
            test_capacity_exactly_consumed;
          Helpers.slow_case "rescale exponent cancellation"
            test_rescale_exponent_cancellation;
        ] );
    ]
