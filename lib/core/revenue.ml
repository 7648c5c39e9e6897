module Special = Crossbar_numerics.Special

let total ?algorithm model ~weights =
  Measures.revenue (Solver.solve ?algorithm model) ~weights

let reduced_model model ~ports =
  let inputs = Model.inputs model - ports
  and outputs = Model.outputs model - ports in
  if inputs < 1 || outputs < 1 then
    invalid_arg "Revenue.reduced_model: reduction empties the switch";
  let rescale (c : Traffic.t) =
    let ratio =
      Special.binomial outputs c.Traffic.bandwidth
      /. Special.binomial (Model.outputs model) c.Traffic.bandwidth
    in
    Traffic.with_beta
      (Traffic.with_alpha c (c.Traffic.alpha *. ratio))
      (c.Traffic.beta *. ratio)
  in
  Model.create ~inputs ~outputs
    ~classes:(List.map rescale (Array.to_list (Model.classes model)))

let shadow_cost ?algorithm model ~weights ~class_index =
  let a = Model.bandwidth model class_index in
  let here = total ?algorithm model ~weights in
  if Model.inputs model - a < 1 || Model.outputs model - a < 1 then here
  else here -. total ?algorithm (reduced_model model ~ports:a) ~weights

(* All R shadow costs out of a single solve: [reduced_model] preserves
   the per-pair parameters, so the reduced switch's normalisations are
   deeper entries of the SAME solved diagonal and
   W(N - dI) = sum_r w_r E_r evaluated at reservation depth d
   (Convolution.concurrencies_at_depth) — no re-solve per class. *)
let solved_for ?solved model ~weights =
  if Array.length weights <> Model.num_classes model then
    invalid_arg "Revenue.shadow_costs: weight count mismatch";
  match solved with
  | None -> Convolution.solve model
  | Some t ->
      (match Model.class_delta (Convolution.model t) model with
      | Some [] -> t
      | Some _ | None ->
          invalid_arg
            "Revenue.shadow_costs: ~solved was produced from a different \
             model")

(* W at reservation depth [depth], summed in class order.  The solve
   memoizes each depth's concurrencies, so a repeated depth costs the
   copy and this sum. *)
let weighted_at t ~weights depth =
  let e = Convolution.concurrencies_at_depth t ~depth in
  let w = ref 0. in
  for r = 0 to Array.length e - 1 do
    w := !w +. (weights.(r) *. e.(r))
  done;
  !w

(* Delta for a class of bandwidth [a], given W(N) = [w0].  A reduction
   that empties the switch leaves no reduced return: the whole of W(N)
   is at stake. *)
let cost_at t model ~weights ~w0 a =
  if Model.inputs model - a < 1 || Model.outputs model - a < 1 then w0
  else w0 -. weighted_at t ~weights a

let shadow_costs ?solved model ~weights =
  let t = solved_for ?solved model ~weights in
  let w0 = weighted_at t ~weights 0 in
  let costs = Array.make (Model.num_classes model) w0 in
  for r = 0 to Array.length costs - 1 do
    let a = Model.bandwidth model r in
    (* Each distinct depth once: a class that shares an earlier class's
       bandwidth shares its cost. *)
    let first = ref 0 in
    while Model.bandwidth model !first <> a do
      incr first
    done;
    costs.(r) <-
      (if !first < r then costs.(!first) else cost_at t model ~weights ~w0 a)
  done;
  costs

let class_shadow_cost ?solved model ~weights ~class_index =
  let t = solved_for ?solved model ~weights in
  if class_index < 0 || class_index >= Model.num_classes model then
    invalid_arg
      (Printf.sprintf
         "Revenue.class_shadow_cost: class %d out of range (model has %d \
          classes)"
         class_index (Model.num_classes model));
  cost_at t model ~weights
    ~w0:(weighted_at t ~weights 0)
    (Model.bandwidth model class_index)

let gradient ?solved model ~weights =
  let t = solved_for ?solved model ~weights in
  let deltas = shadow_costs ~solved:t model ~weights in
  let measures = Convolution.measures t in
  Array.mapi
    (fun r (c : Measures.per_class) ->
      if not (Model.is_poisson model r) then None
      else
        let a = Model.bandwidth model r in
        Some
          (Special.permutations (Model.inputs model) a
          *. Special.permutations (Model.outputs model) a
          *. c.Measures.non_blocking
          *. (weights.(r) -. deltas.(r))))
    measures.Measures.per_class

let gradient_rho ?algorithm model ~weights ~class_index =
  if not (Model.is_poisson model class_index) then
    invalid_arg "Revenue.gradient_rho: closed form requires a Poisson class";
  let a = Model.bandwidth model class_index in
  let measures = Solver.solve ?algorithm model in
  let non_blocking = measures.Measures.per_class.(class_index).Measures.non_blocking in
  let delta = shadow_cost ?algorithm model ~weights ~class_index in
  Special.permutations (Model.inputs model) a
  *. Special.permutations (Model.outputs model) a
  *. non_blocking
  *. (weights.(class_index) -. delta)

(* Rebuild the model with the per-pair rho_r of one class set to [value]
   (holding mu and therefore alpha's scaling fixed). *)
let with_per_pair_rho model ~class_index value =
  let a = Model.bandwidth model class_index in
  let mu = Model.service_rate model class_index in
  let aggregate = value *. mu *. Special.binomial (Model.outputs model) a in
  Model.map_class model class_index (fun c -> Traffic.with_alpha c aggregate)

let with_per_pair_beta_over_mu model ~class_index value =
  let a = Model.bandwidth model class_index in
  let mu = Model.service_rate model class_index in
  let aggregate = value *. mu *. Special.binomial (Model.outputs model) a in
  Model.map_class model class_index (fun c -> Traffic.with_beta c aggregate)

(* The loads perturbed here are minuscule (rho ~ 1e-5), so the step must be
   relative to the coordinate, not to 1. *)
let relative_step x = 1e-4 *. Float.max (Float.abs x) 1e-9

let gradient_rho_numeric ?algorithm ?step model ~weights ~class_index =
  let rho = Model.rho model class_index in
  let step = match step with Some s -> s | None -> relative_step rho in
  let w value =
    total ?algorithm (with_per_pair_rho model ~class_index value) ~weights
  in
  Crossbar_numerics.Derivative.central ~step ~f:w rho

let gradient_beta_numeric ?algorithm ?step model ~weights ~class_index =
  if Model.is_poisson model class_index then
    invalid_arg "Revenue.gradient_beta_numeric: class is Poisson";
  let coordinate = Model.beta_over_mu model class_index in
  let step =
    match step with Some s -> s | None -> relative_step coordinate
  in
  let w value =
    total ?algorithm
      (with_per_pair_beta_over_mu model ~class_index value)
      ~weights
  in
  Crossbar_numerics.Derivative.forward ~step ~f:w coordinate
