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
   the client's problem, not the daemon's.  So is a model too large to
   allocate: one solve line must not take the daemon down. *)
let guard f =
  match f () with
  | response -> response
  | exception Invalid_argument message -> Error message
  | exception Failure message -> Error message
  | exception Out_of_memory -> Error "out of memory"

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
                 the batch is served on this one domain, so the update
                 may recycle the replaced nodes into this domain's
                 arena. *)
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

let handle_shadow_costs registry ~id ~tree ~weights =
  match Registry.find registry tree with
  | None -> unknown_tree tree
  | Some ({ Registry.model; solved } as entry) ->
      guard (fun () ->
          let shadow_costs = Revenue.shadow_costs ~solved model ~weights in
          let revenue =
            Measures.revenue (Convolution.measures solved) ~weights
          in
          Ok
            ( Protocol.Shadow_costs_ok { id; tree; revenue; shadow_costs },
              Some (entry, true) ))

let handle_admit registry ~id ~tree ~class_index ~weights =
  match Registry.find registry tree with
  | None -> unknown_tree tree
  | Some ({ Registry.model; solved } as entry) ->
      guard (fun () ->
          if class_index < 0 || class_index >= Model.num_classes model then
            invalid_arg
              (Printf.sprintf "admit: class %d out of range (model has %d \
                               classes)"
                 class_index (Model.num_classes model))
          else begin
            let shadow_cost =
              Revenue.class_shadow_cost ~solved model ~weights ~class_index
            in
            let weight = weights.(class_index) in
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

let stats_fields ~registry ~telemetry =
  [
    ("telemetry", Telemetry.to_json telemetry);
    ("registry", Registry.stats_json registry);
  ]

(* ---------- execution ---------- *)

let serve ~registry ~telemetry (request : Protocol.request) =
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
              { id; fields = stats_fields ~registry ~telemetry },
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

let is_shutdown (request : Protocol.request) =
  match request.Protocol.query with
  | Protocol.Shutdown -> true
  | _ -> false

let execute ?domains:_ ~registry ~telemetry (requests : Protocol.request array)
    =
  (* Arrival order on this domain, stats and shutdown included: a batch
     answers exactly as its requests served one at a time, and an
     evicted tree is recycled where no one else can read it. *)
  let responses = Array.map (serve ~registry ~telemetry) requests in
  { responses; shutdown = Array.exists is_shutdown requests }
