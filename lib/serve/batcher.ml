module Json = Crossbar_engine.Json
module Pool = Crossbar_engine.Pool
module Clock = Crossbar_engine.Clock
module Telemetry = Crossbar_engine.Telemetry
module Model = Crossbar.Model
module Traffic = Crossbar.Traffic
module Convolution = Crossbar.Convolution
module Solver = Crossbar.Solver
module Measures = Crossbar.Measures
module Revenue = Crossbar.Revenue

type outcome = { responses : Json.t array; shutdown : bool }

(* ---------- per-query handlers ---------- *)

(* Solver preconditions surface as Invalid_argument/Failure; both are
   the client's problem, not the daemon's. *)
let guard f =
  match f () with
  | response -> response
  | exception Invalid_argument message -> Error message
  | exception Failure message -> Error message

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

let solved_fields ~tree ~from_hot (entry : Registry.entry) =
  let solution = Solver.solution_of_convolution entry.Registry.solved in
  [
    ("tree", Json.String tree);
    ("from_hot", Json.Bool from_hot);
    ("tree_combines", Json.Int solution.Solver.tree_combines);
    ("banded_combines", Json.Int solution.Solver.banded_combines);
    ("log_g", Json.Float solution.Solver.log_normalization);
    ("measures", Protocol.measures_to_json solution.Solver.measures);
  ]

let handle_solve registry ~tree model =
  guard (fun () ->
      let entry, from_hot = Registry.install registry ~name:tree model in
      Ok (solved_fields ~tree ~from_hot entry, Some (entry, from_hot)))

let handle_delta registry ~tree changes =
  match Registry.find registry tree with
  | None -> unknown_tree tree
  | Some { Registry.model; solved } ->
      guard (fun () ->
          let model' = List.fold_left apply_change model changes in
          (* [Registry.replace] below drops the previous tree, and
             requests for one tree are sharded onto a single worker, so
             the update may recycle the replaced nodes into this
             domain's arena. *)
          let solved' =
            Convolution.solve_delta ~recycle:true ~previous:solved model'
          in
          let entry = { Registry.model = model'; solved = solved' } in
          Registry.replace registry ~name:tree entry;
          let changed =
            match Model.class_delta model model' with
            | Some indices -> indices
            | None -> []
          in
          Ok
            ( solved_fields ~tree ~from_hot:true entry
              @ [
                  ( "changed_classes",
                    Json.List (List.map (fun i -> Json.Int i) changed) );
                ],
              Some (entry, true) ))

let handle_blocking registry ~tree =
  match Registry.find registry tree with
  | None -> unknown_tree tree
  | Some ({ Registry.solved; _ } as entry) ->
      guard (fun () ->
          let measures = Convolution.measures solved in
          let classes =
            Array.to_list
              (Array.map
                 (fun (c : Measures.per_class) ->
                   Json.Assoc
                     [
                       ("name", Json.String c.Measures.name);
                       ("blocking", Json.Float c.Measures.blocking);
                       ("non_blocking", Json.Float c.Measures.non_blocking);
                     ])
                 measures.Measures.per_class)
          in
          Ok
            ( [ ("tree", Json.String tree); ("classes", Json.List classes) ],
              Some (entry, true) ))

let shadow_costs_of entry ~weights =
  let { Registry.model; solved } = entry in
  let costs = Revenue.shadow_costs ~solved model ~weights in
  let revenue = Measures.revenue (Convolution.measures solved) ~weights in
  (costs, revenue)

let handle_shadow_costs registry ~tree ~weights =
  match Registry.find registry tree with
  | None -> unknown_tree tree
  | Some entry ->
      guard (fun () ->
          let costs, revenue = shadow_costs_of entry ~weights in
          Ok
            ( [
                ("tree", Json.String tree);
                ("revenue", Json.Float revenue);
                ( "shadow_costs",
                  Json.List
                    (Array.to_list
                       (Array.map (fun d -> Json.Float d) costs)) );
              ],
              Some (entry, true) ))

let handle_admit registry ~tree ~class_index ~weights =
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
            let shadow = costs.(class_index) in
            (* Revenue-positive admission (paper Section 4): accept a
               class-r request iff the revenue it earns covers the
               revenue its port usage displaces. *)
            Ok
              ( [
                  ("tree", Json.String tree);
                  ("class", Json.Int class_index);
                  ("admit", Json.Bool (weight >= shadow));
                  ("weight", Json.Float weight);
                  ("shadow_cost", Json.Float shadow);
                  ("net_gain", Json.Float (weight -. shadow));
                ],
                Some (entry, true) )
          end)

let stats_fields ~registry ~telemetry ~domains =
  (* One consistent telemetry snapshot, minus the unbounded per-solve
     record list (a long-running daemon would make it enormous). *)
  let summary =
    match Telemetry.to_json telemetry with
    | Json.Assoc fields ->
        Json.Assoc
          (List.filter (fun (key, _) -> not (String.equal key "records")) fields)
    | other -> other
  in
  [
    ("telemetry", summary);
    ("registry", Registry.stats_json registry);
    ("domains", Json.Int domains);
  ]

(* ---------- execution ---------- *)

let handle ~registry ~telemetry ~domains (request : Protocol.request) =
  let started = Clock.now () in
  let op = Protocol.op_name request.Protocol.query in
  let tree = Protocol.tree_name request.Protocol.query in
  let outcome =
    match request.Protocol.query with
    | Protocol.Solve { tree; model } -> handle_solve registry ~tree model
    | Protocol.Delta { tree; changes } -> handle_delta registry ~tree changes
    | Protocol.Blocking { tree } -> handle_blocking registry ~tree
    | Protocol.Shadow_costs { tree; weights } ->
        handle_shadow_costs registry ~tree ~weights
    | Protocol.Admit { tree; class_index; weights } ->
        handle_admit registry ~tree ~class_index ~weights
    | Protocol.Stats -> Ok (stats_fields ~registry ~telemetry ~domains, None)
    | Protocol.Shutdown -> Ok ([], None)
  in
  let response =
    match outcome with
    | Ok (fields, _) -> Protocol.ok_response ~id:request.Protocol.id ~op fields
    | Error message -> Protocol.error_response ~id:request.Protocol.id message
  in
  let solved =
    match outcome with Ok (_, solved) -> solved | Error _ -> None
  in
  let label = match tree with Some t -> op ^ ":" ^ t | None -> op in
  let record =
    match solved with
    | Some ({ Registry.solved; _ }, from_hot) ->
        let solution = Solver.solution_of_convolution solved in
        {
          Telemetry.label;
          algorithm = Solver.algorithm_to_string solution.Solver.algorithm;
          wall_seconds = Clock.elapsed_since started;
          lattice_cells = solution.Solver.lattice_cells;
          rescales = solution.Solver.rescales;
          (* Reads off a hot tree do no combine work; only solve/delta
             actually ran the recurrence this request. *)
          tree_combines =
            (match request.Protocol.query with
            | Protocol.Solve _ | Protocol.Delta _ ->
                solution.Solver.tree_combines
            | _ -> 0);
          banded_combines =
            (match request.Protocol.query with
            | Protocol.Solve _ | Protocol.Delta _ ->
                solution.Solver.banded_combines
            | _ -> 0);
          from_cache =
            (match request.Protocol.query with
            | Protocol.Solve _ | Protocol.Delta _ -> false
            | _ -> true);
          from_incremental =
            (match request.Protocol.query with
            | Protocol.Solve _ | Protocol.Delta _ -> from_hot
            | _ -> false);
        }
    | None ->
        {
          Telemetry.label;
          algorithm = "serve";
          wall_seconds = Clock.elapsed_since started;
          lattice_cells = 0;
          rescales = 0;
          tree_combines = 0;
          banded_combines = 0;
          from_cache = false;
          from_incremental = false;
        }
  in
  Telemetry.record telemetry record;
  response

let execute ?domains ~registry ~telemetry (requests : Protocol.request array) =
  let n = Array.length requests in
  let width =
    match domains with Some d -> d | None -> Pool.recommended_domains ()
  in
  let responses = Array.make n Json.Null in
  (* Group request indices by target tree, arrival order preserved
     within each tree.  Stats/shutdown have no tree; they run in the
     caller's domain after the tree groups complete, so a stats
     response reflects the batch it arrived with. *)
  let by_tree : (string, int list) Hashtbl.t = Hashtbl.create 8 in
  let control = ref [] in
  Array.iteri
    (fun i request ->
      match Protocol.tree_name request.Protocol.query with
      | Some tree ->
          let tail =
            Option.value ~default:[] (Hashtbl.find_opt by_tree tree)
          in
          Hashtbl.replace by_tree tree (i :: tail)
      | None -> control := i :: !control)
    requests;
  let groups =
    Array.of_list
      (List.sort
         (fun (a, _) (b, _) -> String.compare a b)
         (Hashtbl.fold
            (fun tree indices acc -> (tree, List.rev indices) :: acc)
            by_tree []))
  in
  (* Per-tree worker sharding: each group walks its requests in arrival
     order on one pool worker; distinct trees run concurrently.  Results
     scatter back by request index, so responses are index-aligned no
     matter which domain served which tree. *)
  let group_responses =
    (* lint: guarded=groups,requests — both frozen before the pool starts *)
    Pool.run ~domains:width ~tasks:(Array.length groups) (fun g ->
        let _, indices = groups.(g) in
        List.map
          (fun i ->
            (i, handle ~registry ~telemetry ~domains:width requests.(i)))
          indices)
  in
  Array.iter
    (List.iter (fun (i, response) -> responses.(i) <- response))
    group_responses;
  let shutdown = ref false in
  List.iter
    (fun i ->
      (match requests.(i).Protocol.query with
      | Protocol.Shutdown -> shutdown := true
      | _ -> ());
      responses.(i) <- handle ~registry ~telemetry ~domains:width requests.(i))
    (List.rev !control);
  (* Quiescent point: [Pool.run] returned, so [Band_pool.run_tasks]
     beneath it has collected every band's [done_] flag.  A band
     finishes only once every task has and it has left the nested
     combine bands it lent to, so no worker still runs anything of this
     batch, and the control requests above ran on this domain.  Trees evicted by capacity pressure during this batch
     therefore have no remaining readers and their lattices can go back
     to the arenas. *)
  ignore (Registry.recycle_evicted registry : int);
  { responses; shutdown = !shutdown }

(* ---------- pipelined execution ---------- *)

module Pipeline = struct
  (* One worker domain, one batch in flight.  The server thread submits
     a batch and returns to its select loop; the worker executes it and
     pings a self-pipe byte, which the select loop watches alongside the
     client socket — reading the next batch overlaps serving the current
     one without threading callbacks through [execute]. *)

  type slot =
    | Empty  (** no batch submitted *)
    | Batch of Protocol.request array  (** submitted, not yet taken *)
    | Running  (** worker is executing *)
    | Result of outcome  (** finished; collect pending *)
    | Failed of exn  (** execute raised; collect re-raises *)
    | Quit  (** shutdown requested *)

  type shared = {
    lock : Mutex.t;
    cond : Condition.t;
    mutable slot : slot;
    notify_write : Unix.file_descr;
  }

  type t = {
    shared : shared;
    notify_read : Unix.file_descr;
    worker : unit Domain.t;
  }

  let rec ping fd bytes =
    match Unix.write fd bytes 0 1 with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ping fd bytes

  let worker_loop ?domains ~registry ~telemetry shared =
    let bytes = Bytes.make 1 '\000' in
    let rec await () =
      match shared.slot with
      | Batch _ | Quit -> ()
      | Empty | Running | Result _ | Failed _ ->
          Condition.wait shared.cond shared.lock;
          await ()
    in
    let rec loop () =
      Mutex.lock shared.lock;
      await ();
      match shared.slot with
      | Quit -> Mutex.unlock shared.lock
      | Batch requests ->
          shared.slot <- Running;
          Mutex.unlock shared.lock;
          let finished =
            match execute ?domains ~registry ~telemetry requests with
            | outcome -> Result outcome
            | exception e -> Failed e
          in
          Mutex.lock shared.lock;
          shared.slot <- finished;
          (* Wake a [shutdown] waiting out this batch; the worker itself
             never waits while a slot it published is pending. *)
          Condition.signal shared.cond;
          Mutex.unlock shared.lock;
          (* Ping after the slot is published: the mutex hand-off above
             happens-before the select loop's read of the byte. *)
          ping shared.notify_write bytes;
          loop ()
      | Empty | Running | Result _ | Failed _ -> assert false
    in
    loop ()

  let start ?domains ~registry ~telemetry () =
    let notify_read, notify_write = Unix.pipe ~cloexec:true () in
    let shared =
      { lock = Mutex.create (); cond = Condition.create (); slot = Empty;
        notify_write }
    in
    (* Every [slot] access is under [lock]; the pipe byte only signals
       readiness, never carries data. *)
    let worker =
      (* lint: guarded=shared — slot hand-off is under shared.lock *)
      Domain.spawn (fun () -> worker_loop ?domains ~registry ~telemetry shared)
    in
    { shared; notify_read; worker }

  let descriptor t = t.notify_read

  let submit t requests =
    let shared = t.shared in
    Mutex.lock shared.lock;
    match shared.slot with
    | Empty ->
        shared.slot <- Batch requests;
        Condition.signal shared.cond;
        Mutex.unlock shared.lock
    | Batch _ | Running | Result _ | Failed _ | Quit ->
        Mutex.unlock shared.lock;
        invalid_arg "Batcher.Pipeline.submit: a batch is already in flight"

  let collect t =
    (* Drain the readiness byte first so a fresh [select] round blocks
       instead of spinning on a stale ping. *)
    let buffer = Bytes.create 1 in
    let rec drain () =
      match Unix.read t.notify_read buffer 0 1 with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
    in
    drain ();
    let shared = t.shared in
    Mutex.lock shared.lock;
    match shared.slot with
    | Result outcome ->
        shared.slot <- Empty;
        Mutex.unlock shared.lock;
        outcome
    | Failed e ->
        shared.slot <- Empty;
        Mutex.unlock shared.lock;
        raise e
    | Empty | Batch _ | Running | Quit ->
        Mutex.unlock shared.lock;
        invalid_arg "Batcher.Pipeline.collect: no finished batch"

  let shutdown t =
    let shared = t.shared in
    Mutex.lock shared.lock;
    (* An executing batch cannot be interrupted — wait for the worker to
       publish its slot, then quit.  An unconsumed Batch/Result/Failed is
       discarded: shutdown is also the crash-cleanup path, where the
       server loop abandoned whatever was in flight, and a worker that
       never takes the batch (or a result nobody collects) must not keep
       the domain alive or leak the pipe. *)
    let rec settle () =
      match shared.slot with
      | Running ->
          Condition.wait shared.cond shared.lock;
          settle ()
      | Empty | Batch _ | Result _ | Failed _ | Quit -> ()
    in
    settle ();
    (match shared.slot with
    | Quit -> ()
    | Running -> assert false (* [settle] waited it out *)
    | Empty | Batch _ | Result _ | Failed _ ->
        shared.slot <- Quit;
        Condition.signal shared.cond);
    Mutex.unlock shared.lock;
    Domain.join t.worker;
    Unix.close t.notify_read;
    Unix.close shared.notify_write
end
