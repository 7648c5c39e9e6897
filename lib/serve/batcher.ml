module Json = Crossbar_engine.Json
module Pool = Crossbar_engine.Pool
module Clock = Crossbar_engine.Clock
module Telemetry = Crossbar_engine.Telemetry
module Model = Crossbar.Model
module Traffic = Crossbar.Traffic
module Convolution = Crossbar.Convolution
module Measures = Crossbar.Measures
module Revenue = Crossbar.Revenue

type outcome = { responses : Protocol.response array; shutdown : bool }

(* ---------- per-query handlers ---------- *)

(* Solver preconditions surface as Invalid_argument/Failure; both are
   the client's problem, not the daemon's. *)
let guard f =
  match f () with
  | response -> response
  | exception Invalid_argument message -> Error message
  | exception Failure message -> Error message

(* A solve or delta that fails may already have recycled the previous
   tree's lattices (the warm install, [solve_delta ~recycle:true]), so a
   request whose response was not built leaves its name absent: later
   reads answer "unknown tree" instead of reading released lattices. *)
let guard_solve registry ~tree f =
  match guard f with
  | Ok _ as ok -> ok
  | Error _ as error ->
      Registry.remove registry tree;
      error

let unknown_tree tree =
  Error (Printf.sprintf "unknown tree %S (never installed, or evicted)" tree)

let apply_change model (c : Protocol.change) =
  if c.Protocol.class_index < 0 || c.Protocol.class_index >= Model.num_classes model
  then
    invalid_arg
      (Printf.sprintf "change: class %d out of range (model has %d classes)"
         c.Protocol.class_index (Model.num_classes model))
  else
    Model.map_class model c.Protocol.class_index (fun traffic ->
        let traffic =
          match c.Protocol.alpha with
          | Some alpha -> Traffic.with_alpha traffic alpha
          | None -> traffic
        in
        match c.Protocol.beta with
        | Some beta -> Traffic.with_beta traffic beta
        | None -> traffic)

let solved_of ~tree ~from_hot (entry : Registry.entry) =
  let solved = entry.Registry.solved in
  {
    Protocol.tree;
    from_hot;
    tree_combines = Convolution.combine_count solved;
    banded_combines = Convolution.banded_combine_count solved;
    log_g = Convolution.log_normalization solved;
    measures = Convolution.measures solved;
  }

let handle_solve registry ~id ~tree model =
  guard_solve registry ~tree (fun () ->
      let entry, from_hot = Registry.install registry ~name:tree model in
      Ok
        ( Protocol.Solve_ok { id; solved = solved_of ~tree ~from_hot entry },
          Some (entry, from_hot) ))

let handle_delta registry ~id ~tree changes =
  match Registry.find registry tree with
  | None -> unknown_tree tree
  | Some { Registry.model; solved } -> (
      (* A bad change is refused before anything is recycled, so the
         tree stays installed. *)
      match guard (fun () -> Ok (List.fold_left apply_change model changes))
      with
      | Error _ as error -> error
      | Ok model' ->
          guard_solve registry ~tree (fun () ->
              (* [Registry.replace] below drops the previous tree, and
                 requests for one tree are sharded onto a single worker,
                 so the update may recycle the replaced nodes into this
                 domain's arena. *)
              let solved' =
                Convolution.solve_delta ~recycle:true ~previous:solved model'
              in
              let entry = { Registry.model = model'; solved = solved' } in
              Registry.replace registry ~name:tree entry;
              let changed_classes =
                match Model.class_delta model model' with
                | Some indices -> indices
                | None -> []
              in
              Ok
                ( Protocol.Delta_ok
                    {
                      id;
                      solved = solved_of ~tree ~from_hot:true entry;
                      changed_classes;
                    },
                  Some (entry, true) )))

let handle_blocking registry ~id ~tree =
  match Registry.find registry tree with
  | None -> unknown_tree tree
  | Some ({ Registry.solved; _ } as entry) ->
      guard (fun () ->
          let measures = Convolution.measures solved in
          Ok
            ( Protocol.Blocking_ok
                { id; tree; classes = measures.Measures.per_class },
              Some (entry, true) ))

let shadow_costs_of entry ~weights =
  let { Registry.model; solved } = entry in
  let costs = Revenue.shadow_costs ~solved model ~weights in
  let revenue = Measures.revenue (Convolution.measures solved) ~weights in
  (costs, revenue)

let handle_shadow_costs registry ~id ~tree ~weights =
  match Registry.find registry tree with
  | None -> unknown_tree tree
  | Some entry ->
      guard (fun () ->
          let shadow_costs, revenue = shadow_costs_of entry ~weights in
          Ok
            ( Protocol.Shadow_costs_ok { id; tree; revenue; shadow_costs },
              Some (entry, true) ))

let handle_admit registry ~id ~tree ~class_index ~weights =
  match Registry.find registry tree with
  | None -> unknown_tree tree
  | Some entry ->
      guard (fun () ->
          if
            class_index < 0
            || class_index >= Model.num_classes entry.Registry.model
          then
            invalid_arg
              (Printf.sprintf "admit: class %d out of range (model has %d \
                               classes)"
                 class_index
                 (Model.num_classes entry.Registry.model))
          else begin
            let costs, _ = shadow_costs_of entry ~weights in
            let weight = weights.(class_index) in
            let shadow_cost = costs.(class_index) in
            (* Revenue-positive admission (paper Section 4): accept a
               class-r request iff the revenue it earns covers the
               revenue its port usage displaces. *)
            Ok
              ( Protocol.Admit_ok
                  {
                    id;
                    tree;
                    class_index;
                    admit = weight >= shadow_cost;
                    weight;
                    shadow_cost;
                    net_gain = weight -. shadow_cost;
                  },
                Some (entry, true) )
          end)

let stats_fields ~registry ~telemetry ~domains =
  [
    ("telemetry", Telemetry.to_json telemetry);
    ("registry", Registry.stats_json registry);
    ("domains", Json.Int domains);
  ]

(* ---------- execution ---------- *)

let handle ~registry ~telemetry ~domains (request : Protocol.request) =
  let started = Clock.now () in
  let id = request.Protocol.id in
  let outcome =
    match request.Protocol.query with
    | Protocol.Solve { tree; model } -> handle_solve registry ~id ~tree model
    | Protocol.Delta { tree; changes } ->
        handle_delta registry ~id ~tree changes
    | Protocol.Blocking { tree } -> handle_blocking registry ~id ~tree
    | Protocol.Shadow_costs { tree; weights } ->
        handle_shadow_costs registry ~id ~tree ~weights
    | Protocol.Admit { tree; class_index; weights } ->
        handle_admit registry ~id ~tree ~class_index ~weights
    | Protocol.Stats ->
        Ok
          ( Protocol.Stats_ok
              { id; fields = stats_fields ~registry ~telemetry ~domains },
            None )
    | Protocol.Shutdown -> Ok (Protocol.Shutdown_ok { id }, None)
  in
  let response =
    match outcome with
    | Ok (response, _) -> response
    | Error message -> Protocol.error_response ~id message
  in
  let wall_seconds = Clock.elapsed_since started in
  (* Only a solve or delta that installed a tree counts as a solve;
     reads, failures and control requests count as requests alone.
     Counters come straight off the tree: no [log_g] or other O(cap)
     pass, and nothing here can raise. *)
  (match (request.Protocol.query, outcome) with
  | ( (Protocol.Solve _ | Protocol.Delta _),
      Ok (_, Some ({ Registry.model; solved }, from_hot)) ) ->
      Telemetry.record telemetry
        {
          Telemetry.wall_seconds;
          lattice_cells = (Model.inputs model + 1) * (Model.outputs model + 1);
          rescales = Convolution.rescale_count solved;
          tree_combines = Convolution.combine_count solved;
          banded_combines = Convolution.banded_combine_count solved;
          from_incremental = from_hot;
        }
  | _ -> Telemetry.record_request telemetry);
  response

let execute ?domains ~registry ~telemetry (requests : Protocol.request array) =
  let width =
    match domains with Some d -> d | None -> Pool.recommended_domains ()
  in
  (* Every slot is overwritten below. *)
  let responses =
    Array.make (Array.length requests)
      (Protocol.error_response ~id:Json.Null "")
  in
  let serve i =
    responses.(i) <- handle ~registry ~telemetry ~domains:width requests.(i)
  in
  let has_tree (request : Protocol.request) =
    Option.is_some (Protocol.tree_name request.Protocol.query)
  in
  let serve_if keep =
    Array.iteri (fun i request -> if keep request then serve i) requests
  in
  (* Group request indices by target tree, in first-arrival order of the
     trees and arrival order within each. *)
  let group () =
    let by_tree : (string, int list ref) Hashtbl.t = Hashtbl.create 8 in
    let trees = ref [] in
    Array.iteri
      (fun i request ->
        Option.iter
          (fun tree ->
            match Hashtbl.find_opt by_tree tree with
            | Some indices -> indices := i :: !indices
            | None ->
                let indices = ref [ i ] in
                Hashtbl.add by_tree tree indices;
                trees := indices :: !trees)
          (Protocol.tree_name request.Protocol.query))
      requests;
    Array.of_list (List.rev_map (fun l -> List.rev !l) !trees)
  in
  (* Only an unbounded registry fans out: it never evicts, so each group
     depends only on its own tree (and LRU recency cannot show). *)
  let groups =
    if width > 1 && Option.is_none (Registry.capacity registry) then group ()
    else [||]
  in
  if Array.length groups < 2 then
    (* Arrival order on this domain: exactly one-at-a-time serving, so
       a capacity eviction happens where it would one request at a time
       and never while another domain reads the evicted tree. *)
    serve_if has_tree
  else
    (* The groups fan out, one per task, each in arrival order.
       [groups] and [requests] are frozen before the pool starts, and
       each response slot is written by the one task serving its
       tree. *)
    (* lint: guarded=groups,requests,responses — one task per slot *)
    Pool.run ~domains:width ~tasks:(Array.length groups) (fun g ->
        List.iter serve groups.(g))
    |> ignore;
  (* Stats/shutdown run on this domain after the tree requests, so a
     stats response reflects the batch it arrived with. *)
  serve_if (fun request -> not (has_tree request));
  let shutdown =
    Array.exists
      (fun (request : Protocol.request) ->
        match request.Protocol.query with
        | Protocol.Shutdown -> true
        | _ -> false)
      requests
  in
  { responses; shutdown }
