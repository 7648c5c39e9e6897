module Model = Crossbar.Model
module Solver = Crossbar.Solver
module Convolution = Crossbar.Convolution

type point = {
  label : string;
  model : Model.t;
  algorithm : Solver.algorithm option;
}

let point ?algorithm ?label model =
  let label =
    match label with
    | Some l -> l
    | None ->
        Printf.sprintf "%dx%d" (Model.inputs model) (Model.outputs model)
  in
  { label; model; algorithm }

type outcome = {
  point : point;
  solution : Solver.solution;
  wall_seconds : float;
  from_cache : bool;
  from_incremental : bool;
}

let measures outcome = outcome.solution.Solver.measures
let log_normalization outcome = outcome.solution.Solver.log_normalization

let is_convolution p =
  match
    match p.algorithm with Some a -> a | None -> Solver.recommended p.model
  with
  | Solver.Convolution -> true
  | Solver.Brute_force | Solver.Mean_value -> false

(* Mutable per-chain state: the last convolution lattice computed on this
   chain.  A chain is only ever walked by one domain, so no locking. *)
type chain = { mutable lattice : Convolution.t option }

let solve_point ?chain cache p =
  let started = Clock.now () in
  let from_incremental = ref false in
  let compute () =
    match chain with
    | Some c when is_convolution p ->
        let solved =
          match c.lattice with
          | Some previous -> (
              (* Delta against the last tree actually computed on this
                 chain (cache hits in between do not advance it): updates
                 are bit-identical for any base with the same shape, so
                 chains survive warm-cache gaps, and any number of
                 classes may move between points. *)
              match
                Model.class_delta (Convolution.model previous) p.model
              with
              | Some _ ->
                  from_incremental := true;
                  (* The chain is the only holder of [previous] and
                     overwrites it below, so the update may recycle the
                     replaced tree nodes into the arena: a steady-state
                     chain walk allocates no fresh profiles.  The cache
                     stores only the extracted float solution, never the
                     tree, so cached outcomes cannot alias recycled
                     storage. *)
                  Convolution.solve_delta ~recycle:true ~previous p.model
              | None -> Convolution.solve p.model)
          | None -> Convolution.solve p.model
        in
        c.lattice <- Some solved;
        Solver.solution_of_convolution solved
    | _ -> Solver.solve_full ?algorithm:p.algorithm p.model
  in
  let solution, from_cache =
    Cache.find_or_compute cache ?algorithm:p.algorithm p.model compute
  in
  {
    point = p;
    solution;
    wall_seconds = Clock.elapsed_since started;
    from_cache;
    from_incremental = !from_incremental;
  }

let record_outcome telemetry outcome =
  match telemetry with
  | None -> ()
  | Some t ->
      Telemetry.record t
        {
          Telemetry.wall_seconds = outcome.wall_seconds;
          lattice_cells = outcome.solution.Solver.lattice_cells;
          rescales = outcome.solution.Solver.rescales;
          tree_combines =
            (if outcome.from_cache then 0
             else outcome.solution.Solver.tree_combines);
          banded_combines =
            (if outcome.from_cache then 0
             else outcome.solution.Solver.banded_combines);
          from_incremental = outcome.from_incremental;
        }

let run ?domains ?cache ?telemetry ?(incremental = false) points =
  let cache = match cache with Some c -> c | None -> Cache.create () in
  let points = Array.of_list points in
  let n = Array.length points in
  let outcomes =
    if not incremental then
      (* lint: guarded=points — built before the pool starts, never written *)
      Pool.run ?domains ~tasks:n (fun i -> solve_point cache points.(i))
    else begin
      (* Group consecutive points that share switch dimensions and class
         count (and that both resolve to the convolution solver) into
         chains — any subset of classes may differ between neighbours.
         Chains fan out across the pool; within a chain, points run
         sequentially so each can re-solve through a factor-tree update
         from its predecessor.  Updates are bit-identical to full
         solves, so outcomes do not depend on where the chain boundaries
         fall. *)
      let chainable =
        Array.init n (fun i ->
            i > 0
            && is_convolution points.(i - 1)
            && is_convolution points.(i)
            && Option.is_some
                 (Model.class_delta points.(i - 1).model points.(i).model))
      in
      let starts =
        Array.of_list
          (List.filter (fun i -> not chainable.(i)) (List.init n Fun.id))
      in
      let segments = Array.length starts in
      let bound s = if s + 1 < segments then starts.(s + 1) else n in
      let chunks =
        (* lint: guarded=starts,points — both frozen before the pool starts *)
        Pool.run ?domains ~tasks:segments (fun s ->
            let chain = { lattice = None } in
            Array.init
              (bound s - starts.(s))
              (fun j -> solve_point ~chain cache points.(starts.(s) + j)))
      in
      Array.concat (Array.to_list chunks)
    end
  in
  (* Record after the pool run returns, in point order, so the aggregates
     (the float wall-time sum included) do not depend on which domain
     solved what. *)
  Array.iter (record_outcome telemetry) outcomes;
  outcomes

let solve_model ?cache ?telemetry ?algorithm ?label model =
  let cache = match cache with Some c -> c | None -> Cache.create () in
  let outcome = solve_point cache (point ?algorithm ?label model) in
  record_outcome telemetry outcome;
  outcome.solution
