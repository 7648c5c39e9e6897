type t = {
  inputs : int;
  outputs : int;
  classes : Traffic.t array;
  per_pair_alpha : float array;
  per_pair_beta : float array;
  mutable space : Crossbar_markov.State_space.t option; (* lazy cache *)
}

let choose = Crossbar_numerics.Special.binomial

let validate_bernoulli ~capacity (traffic : Traffic.t) =
  if traffic.Traffic.beta < 0. then begin
    let max_k = capacity / traffic.Traffic.bandwidth in
    let s = traffic.Traffic.alpha /. -.traffic.Traffic.beta in
    let integral = Float.abs (s -. Float.round s) < 1e-9 *. Float.max 1. s in
    (* lambda(k) must stay non-negative for every k that can be exceeded,
       unless it hits zero exactly at an integer source count (finite
       source), in which case states beyond it have zero weight. *)
    if (not integral) && s < float_of_int (max_k - 1) then
      invalid_arg
        (Printf.sprintf
           "Model.create: bernoulli class %S reaches a negative arrival \
            rate inside the state space (alpha/|beta| = %g, max k = %d); \
            use an integral source count"
           traffic.Traffic.name s max_k)
  end

let create ~inputs ~outputs ~classes =
  if inputs < 1 || outputs < 1 then
    invalid_arg "Model.create: switch dimensions must be >= 1";
  let classes = Array.of_list classes in
  let names = Hashtbl.create 8 in
  Array.iter
    (fun (c : Traffic.t) ->
      if Hashtbl.mem names c.Traffic.name then
        invalid_arg
          (Printf.sprintf "Model.create: duplicate class name %S"
             c.Traffic.name);
      Hashtbl.replace names c.Traffic.name ())
    classes;
  let capacity = min inputs outputs in
  Array.iter
    (fun (c : Traffic.t) ->
      if c.Traffic.bandwidth > capacity then
        invalid_arg
          (Printf.sprintf
             "Model.create: class %S needs %d ports but the switch has only \
              %d on one side"
             c.Traffic.name c.Traffic.bandwidth capacity))
    classes;
  Array.iter (validate_bernoulli ~capacity) classes;
  let scale (c : Traffic.t) value = value /. choose outputs c.Traffic.bandwidth in
  let per_pair_alpha = Array.map (fun c -> scale c c.Traffic.alpha) classes in
  let per_pair_beta = Array.map (fun c -> scale c c.Traffic.beta) classes in
  { inputs; outputs; classes; per_pair_alpha; per_pair_beta; space = None }

let square ~size ~classes = create ~inputs:size ~outputs:size ~classes
let inputs t = t.inputs
let outputs t = t.outputs
let capacity t = min t.inputs t.outputs
let classes t = Array.copy t.classes
let num_classes t = Array.length t.classes
let bandwidth t r = t.classes.(r).Traffic.bandwidth
let bandwidths t = Array.map (fun (c : Traffic.t) -> c.Traffic.bandwidth) t.classes
let service_rate t r = t.classes.(r).Traffic.service_rate
let alpha t r = t.per_pair_alpha.(r)
let beta t r = t.per_pair_beta.(r)
let rho t r = t.per_pair_alpha.(r) /. service_rate t r
let beta_over_mu t r = t.per_pair_beta.(r) /. service_rate t r

let arrival_rate t ~class_index ~concurrent =
  let rate =
    t.per_pair_alpha.(class_index)
    +. (t.per_pair_beta.(class_index) *. float_of_int concurrent)
  in
  Float.max 0. rate

let max_concurrent t r =
  let by_capacity = capacity t / bandwidth t r in
  match Traffic.sources t.classes.(r) with
  | Some s -> min by_capacity s
  | None -> by_capacity

let is_poisson t r = Crossbar_numerics.Prob.is_zero t.per_pair_beta.(r)

let map_class t r f =
  if r < 0 || r >= num_classes t then invalid_arg "Model.map_class: index";
  let classes =
    Array.to_list (Array.mapi (fun i c -> if i = r then f c else c) t.classes)
  in
  create ~inputs:t.inputs ~outputs:t.outputs ~classes

let class_delta a b =
  if
    a.inputs <> b.inputs || a.outputs <> b.outputs
    || Array.length a.classes <> Array.length b.classes
  then None
  else begin
    let changed = ref [] in
    for r = Array.length a.classes - 1 downto 0 do
      if not (Traffic.equal a.classes.(r) b.classes.(r)) then
        changed := r :: !changed
    done;
    Some !changed
  end

let single_class_delta a b =
  match class_delta a b with Some [ r ] -> Some r | Some _ | None -> None

let state_space t =
  match t.space with
  | Some space -> space
  | None ->
      let space =
        Crossbar_markov.State_space.create ~weights:(bandwidths t)
          ~capacity:(capacity t)
      in
      t.space <- Some space;
      space

let pp ppf t =
  Format.fprintf ppf "@[<v>%dx%d crossbar, %d class(es):@," t.inputs t.outputs
    (num_classes t);
  Array.iter (fun c -> Format.fprintf ppf "  %a@," Traffic.pp c) t.classes;
  Format.fprintf ppf "@]"
