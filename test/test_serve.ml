open Helpers
module Json = Crossbar_engine.Json
module Telemetry = Crossbar_engine.Telemetry
module Protocol = Crossbar_serve.Protocol
module Registry = Crossbar_serve.Registry
module Batcher = Crossbar_serve.Batcher
module Server = Crossbar_serve.Server
module Model = Crossbar.Model
module Traffic = Crossbar.Traffic
module Convolution = Crossbar.Convolution
module Solver = Crossbar.Solver
module Measures = Crossbar.Measures
module Prob = Crossbar_numerics.Prob

let small_model () =
  Model.square ~size:8
    ~classes:
      [ poisson ~name:"p" 0.4; pascal ~name:"q" ~alpha:0.3 ~beta:0.1 () ]

let serialize request = Protocol.request_to_line request

let roundtrip request =
  match Protocol.request_of_line (serialize request) with
  | Ok parsed ->
      check_bool "request roundtrips" true
        (String.equal (serialize request) (serialize parsed))
  | Error message -> Alcotest.failf "roundtrip failed: %s" message

(* ---------- protocol ---------- *)

let test_protocol_roundtrips () =
  let model = small_model () in
  List.iter roundtrip
    [
      { Protocol.id = Json.Int 1; query = Protocol.Solve { tree = "t"; model } };
      {
        Protocol.id = Json.String "req-2";
        query =
          Protocol.Delta
            {
              tree = "t";
              changes =
                [
                  { Protocol.class_index = 0; alpha = Some 0.5; beta = None };
                  {
                    Protocol.class_index = 1;
                    alpha = Some 0.2;
                    beta = Some 0.05;
                  };
                ];
            };
      };
      { Protocol.id = Json.Int 3; query = Protocol.Blocking { tree = "t" } };
      {
        Protocol.id = Json.Int 4;
        query = Protocol.Shadow_costs { tree = "t"; weights = [| 1.0; 0.25 |] };
      };
      {
        Protocol.id = Json.Int 5;
        query =
          Protocol.Admit
            { tree = "t"; class_index = 1; weights = [| 1.0; 0.25 |] };
      };
      { Protocol.id = Json.Int 6; query = Protocol.Stats };
      { Protocol.id = Json.Null; query = Protocol.Shutdown };
    ]

let expect_parse_error label line =
  match Protocol.request_of_line line with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: expected a parse error for %s" label line

let test_protocol_rejects_malformed () =
  expect_parse_error "not json" "{not json";
  expect_parse_error "missing id" {|{"op":"stats"}|};
  expect_parse_error "missing op" {|{"id":1}|};
  expect_parse_error "unknown op" {|{"id":1,"op":"solve_all"}|};
  expect_parse_error "solve without model" {|{"id":1,"op":"solve","tree":"t"}|};
  expect_parse_error "delta without changes"
    {|{"id":1,"op":"delta","tree":"t"}|};
  expect_parse_error "empty changes"
    {|{"id":1,"op":"delta","tree":"t","changes":[]}|};
  expect_parse_error "change without alpha or beta"
    {|{"id":1,"op":"delta","tree":"t","changes":[{"class":0}]}|};
  expect_parse_error "weights not numbers"
    {|{"id":1,"op":"shadow_costs","tree":"t","weights":["x"]}|};
  expect_parse_error "invalid model class"
    {|{"id":1,"op":"solve","tree":"t","model":{"inputs":4,"outputs":4,"classes":[{"name":"p","bandwidth":0,"alpha":0.1,"mu":1.0}]}}|}

let test_protocol_model_roundtrip () =
  let model = small_model () in
  match Protocol.model_of_json (Protocol.model_to_json model) with
  | Error message -> Alcotest.failf "model roundtrip failed: %s" message
  | Ok parsed ->
      check_int "inputs" (Model.inputs model) (Model.inputs parsed);
      check_int "classes" (Model.num_classes model) (Model.num_classes parsed);
      (* Bit-exact rates survive the JSON float writer. *)
      Array.iter2
        (fun (a : Traffic.t) (b : Traffic.t) ->
          check_bool "alpha bits" true
            (Int64.equal
               (Int64.bits_of_float a.Traffic.alpha)
               (Int64.bits_of_float b.Traffic.alpha)))
        (Model.classes model) (Model.classes parsed)

(* ---------- registry ---------- *)

let test_registry_install_and_delta_path () =
  let registry = Registry.create () in
  let model = small_model () in
  let entry, from_hot = Registry.install registry ~name:"t" model in
  check_bool "cold install solves fresh" false from_hot;
  check_bool "solved for the model" true
    (Option.is_some (Model.class_delta (Convolution.model entry.Registry.solved) model));
  (* Rate-only change: reinstall rides the hot tree. *)
  let warmer =
    Model.map_class model 0 (fun c -> Traffic.with_alpha c 0.45)
  in
  let entry', from_hot' = Registry.install registry ~name:"t" warmer in
  check_bool "compatible reinstall is hot" true from_hot';
  (* The incremental result is bit-identical to a fresh solve. *)
  let fresh = Convolution.solve warmer in
  check_bool "hot solve bit-identical" true
    (Int64.equal
       (Int64.bits_of_float (Convolution.log_normalization entry'.Registry.solved))
       (Int64.bits_of_float (Convolution.log_normalization fresh)));
  (* A structurally different model cannot ride the old tree. *)
  let bigger =
    Model.square ~size:8
      ~classes:
        [
          poisson ~name:"p" 0.4;
          pascal ~name:"q" ~alpha:0.3 ~beta:0.1 ();
          poisson ~name:"r" 0.1;
        ]
  in
  let _, from_hot'' = Registry.install registry ~name:"t" bigger in
  check_bool "incompatible reinstall re-solves" false from_hot''

let test_registry_lru_eviction () =
  let registry = Registry.create ~capacity:2 () in
  let model = small_model () in
  ignore (Registry.install registry ~name:"a" model);
  ignore (Registry.install registry ~name:"b" model);
  check_int "two resident" 2 (Registry.size registry);
  (* Touch "a", then install "c": "b" is the LRU victim. *)
  check_bool "a found" true (Option.is_some (Registry.find registry "a"));
  ignore (Registry.install registry ~name:"c" model);
  check_int "capacity held" 2 (Registry.size registry);
  check_bool "b evicted" true (Option.is_none (Registry.find registry "b"));
  check_bool "a survives" true (Option.is_some (Registry.find registry "a"));
  match Registry.stats_json registry with
  | Json.Assoc _ as stats ->
      check_bool "evictions exposed" true
        (match Json.member "evictions" stats with
        | Some (Json.Int n) -> n >= 1
        | _ -> false)
  | _ -> Alcotest.fail "stats_json must be an object"

let test_registry_eviction_recycles () =
  let registry = Registry.create ~capacity:2 () in
  let model = small_model () in
  ignore (Registry.install registry ~name:"a" model);
  ignore (Registry.install registry ~name:"b" model);
  check_int "nothing parked below capacity" 0
    (Registry.recycle_evicted registry);
  ignore (Registry.install registry ~name:"c" model);
  check_int "the displaced tree is parked and drained" 1
    (Registry.recycle_evicted registry);
  check_int "draining empties the list" 0 (Registry.recycle_evicted registry);
  match Registry.find registry "c" with
  | None -> Alcotest.fail "c must be resident"
  | Some { Registry.solved; _ } ->
      (* Same-shape installs share a context (and so this domain's
         arena): once eviction recycling primes the free list, churning
         installs stop creating lattices — the whole loop runs in
         recycled storage. *)
      let arena =
        Convolution.arena
          (Convolution.Factor_tree.context (Convolution.tree solved))
      in
      (* Snapshot before the churn: "c" itself will be evicted and its
         lattices recycled, so the entry must not be read afterwards. *)
      let reference_log_g = Convolution.log_normalization solved in
      let drained = ref 0 in
      let created_after_warmup = ref 0 in
      let warm = 2 in
      for i = 0 to 9 do
        ignore (Registry.install registry ~name:(Printf.sprintf "n%d" i) model);
        drained := !drained + Registry.recycle_evicted registry;
        if i = warm then created_after_warmup := Convolution.Arena.created arena
      done;
      check_int "every churn install displaced one tree" 10 !drained;
      check_int "arena creations plateau under churn" !created_after_warmup
        (Convolution.Arena.created arena);
      check_bool "recycled lattices are reused" true
        (Convolution.Arena.reused arena > 0);
      (* Recycling is bit-invisible: a solve drawing on the recycled
         free list matches the solve that ran before any eviction. *)
      let last, _ = Registry.install registry ~name:"last" model in
      check_bool "post-churn solve bit-identical" true
        (Int64.equal
           (Int64.bits_of_float
              (Convolution.log_normalization last.Registry.solved))
           (Int64.bits_of_float reference_log_g))

let blocking_bits solved =
  Array.map
    (fun (c : Measures.per_class) -> Int64.bits_of_float c.Measures.blocking)
    (Convolution.measures solved).Measures.per_class

let test_registry_eviction_race_with_replace () =
  (* The batcher race: a capacity eviction of tree "a" lands between a
     group's [find "a"] and its [replace], so by drain time "a" is
     resident again and the parked pre-delta tree shares unchanged
     nodes with the live one (its superseded nodes already released by
     [solve_delta ~recycle:true]).  The drain must drop it, not recycle
     it — recycling would push live lattices into the free lists. *)
  let registry = Registry.create ~capacity:2 () in
  let model = small_model () in
  ignore (Registry.install registry ~name:"a" model);
  (* The delta group's [find], before the displacement. *)
  let held =
    match Registry.find registry "a" with
    | Some entry -> entry
    | None -> Alcotest.fail "a must be resident"
  in
  ignore (Registry.install registry ~name:"b" model);
  (* Capacity displacement parks the stalest tree: "a". *)
  ignore (Registry.install registry ~name:"c" model);
  (* The group, still holding the entry it found, updates and
     reinstalls under the same name (this displaces "b" too). *)
  let model' = Model.map_class model 0 (fun t -> Traffic.with_alpha t 0.45) in
  let solved' =
    Convolution.solve_delta ~recycle:true ~previous:held.Registry.solved model'
  in
  Registry.replace registry ~name:"a"
    { Registry.model = model'; solved = solved' };
  let expected = blocking_bits solved' in
  check_int "only the dead tree is recycled" 1
    (Registry.recycle_evicted registry);
  (* Churn installs draw on the recycled free lists; had the parked
     pre-delta "a" been recycled too, these solves would overwrite
     lattices the live "a" still reads. *)
  for i = 0 to 5 do
    check_bool "a stays resident" true
      (Option.is_some (Registry.find registry "a"));
    ignore (Registry.install registry ~name:(Printf.sprintf "r%d" i) model);
    ignore (Registry.recycle_evicted registry : int)
  done;
  match Registry.find registry "a" with
  | None -> Alcotest.fail "a must still be resident"
  | Some { Registry.solved; _ } ->
      check_bool "live tree unharmed by the drain" true
        (blocking_bits solved = expected)

let test_registry_drain_keeps_newest_generation () =
  (* The same name displaced twice between drains: only the newest
     parked generation is recycled — an older generation may share
     nodes with every newer tree built from it. *)
  let registry = Registry.create ~capacity:2 () in
  let model = small_model () in
  ignore (Registry.install registry ~name:"a" model);
  ignore (Registry.install registry ~name:"b" model);
  ignore (Registry.install registry ~name:"c" model) (* parks "a" *);
  ignore (Registry.install registry ~name:"a" model) (* parks "b" *);
  ignore (Registry.install registry ~name:"d" model) (* parks "c" *);
  ignore (Registry.install registry ~name:"e" model) (* parks "a" again *);
  (* Parked newest-first: a (2nd gen), c, b, a (1st gen).  "a" is dead
     at drain time, so its newest generation recycles and the older
     one is dropped. *)
  check_int "one generation per dead name" 3
    (Registry.recycle_evicted registry)

(* ---------- batcher ---------- *)

let execute ?(registry = Registry.create ()) requests =
  let telemetry = Telemetry.create () in
  (Batcher.execute ~domains:2 ~registry ~telemetry requests, telemetry)

let request id query = { Protocol.id = Json.Int id; query }

let solve_request ?(tree = "t") id model =
  request id (Protocol.Solve { tree; model })

let ok response =
  match Json.member "ok" response with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.fail "response missing \"ok\""

let response_float name response =
  match Json.member name response with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> Alcotest.failf "response missing float %S" name

let mixed_stream model =
  let weights = [| 1.0; 0.25 |] in
  [|
    solve_request 0 model;
    request 1
      (Protocol.Delta
         {
           tree = "t";
           changes = [ { Protocol.class_index = 0; alpha = Some 0.5; beta = None } ];
         });
    request 2 (Protocol.Blocking { tree = "t" });
    request 3 (Protocol.Shadow_costs { tree = "t"; weights });
    request 4 (Protocol.Admit { tree = "t"; class_index = 0; weights });
    request 5
      (Protocol.Delta
         {
           tree = "t";
           changes =
             [ { Protocol.class_index = 1; alpha = None; beta = Some 0.08 } ];
         });
    request 6 (Protocol.Blocking { tree = "t" });
  |]

(* An admission controller tracking a drifting load on one hot tree: a
   solve of an R-class 32-port model, then ten rounds of a class-0
   delta, blocking, shadow_costs and admit.  Each request comes paired
   with the model state the tree holds when it is served. *)
let admission_stream ~classes =
  let model0 = multi_class_model ~classes ~size:32 0.05 in
  let weights = Array.init classes (fun r -> 1.0 /. float_of_int (r + 1)) in
  let stream = ref [] and current = ref model0 in
  let push query =
    stream := (request (List.length !stream) query, !current) :: !stream
  in
  push (Protocol.Solve { tree = "t"; model = model0 });
  for i = 1 to 10 do
    let alpha = 0.05 +. (0.002 *. float_of_int i) in
    current := Model.map_class !current 0 (fun c -> Traffic.with_alpha c alpha);
    push
      (Protocol.Delta
         {
           tree = "t";
           changes =
             [ { Protocol.class_index = 0; alpha = Some alpha; beta = None } ];
         });
    push (Protocol.Blocking { tree = "t" });
    push (Protocol.Shadow_costs { tree = "t"; weights });
    push (Protocol.Admit { tree = "t"; class_index = i mod classes; weights })
  done;
  Array.of_list (List.rev !stream)

let admission_classes = [ 2; 4; 8 ]

let check_replay label requests =
  let batched, _ = execute requests in
  check_int (label ^ ": one response per request") (Array.length requests)
    (Array.length batched.Batcher.responses);
  let replay_registry = Registry.create () in
  Array.iteri
    (fun i req ->
      let single, _ = execute ~registry:replay_registry [| req |] in
      check_bool
        (Printf.sprintf "%s: response %d identical to unbatched replay" label
           i)
        true
        (String.equal
           (Json.to_string batched.Batcher.responses.(i))
           (Json.to_string single.Batcher.responses.(0))))
    requests

let test_batched_equals_one_at_a_time () =
  check_replay "mixed" (mixed_stream (small_model ()));
  List.iter
    (fun classes ->
      check_replay
        (Printf.sprintf "admission R=%d" classes)
        (Array.map fst (admission_stream ~classes)))
    admission_classes

(* Every float leaf of a response, in serialization order. *)
let rec float_leaves acc = function
  | Json.Float f -> f :: acc
  | Json.Null | Json.Bool _ | Json.Int _ | Json.String _ -> acc
  | Json.List items -> List.fold_left float_leaves acc items
  | Json.Assoc fields ->
      List.fold_left (fun acc (_, value) -> float_leaves acc value) acc fields

(* Hot-tree answers vs stateless ones: every solve and delta response of
   the stream must report [log_g] and [measures] within 1 ulp of a fresh
   registry solving that request's model state from scratch. *)
let check_hot_matches_stateless label stream =
  let outcome, _ = execute (Array.map fst stream) in
  Array.iteri
    (fun i ((req : Protocol.request), state) ->
      match req.Protocol.query with
      | Protocol.Solve _ | Protocol.Delta _ ->
          let fresh, _ = execute [| solve_request i state |] in
          List.iter
            (fun field ->
              let leaves response =
                match Json.member field response with
                | Some value -> List.rev (float_leaves [] value)
                | None ->
                    Alcotest.failf "%s: response %d lacks %s" label i field
              in
              let hot = leaves outcome.Batcher.responses.(i)
              and stateless = leaves fresh.Batcher.responses.(0) in
              check_int
                (Printf.sprintf "%s: response %d %s leaf count" label i field)
                (List.length stateless) (List.length hot);
              List.iter2
                (fun x y ->
                  check_bool
                    (Printf.sprintf "%s: response %d %s within 1 ulp" label i
                       field)
                    true
                    (Prob.ulp_distance x y <= 1))
                stateless hot)
            [ "log_g"; "measures" ]
      | _ -> ())
    stream

let test_delta_matches_fresh_solve () =
  let model = small_model () in
  let changed = Model.map_class model 0 (fun c -> Traffic.with_alpha c 0.5) in
  let requests =
    [|
      solve_request 0 model;
      request 1
        (Protocol.Delta
           {
             tree = "t";
             changes =
               [ { Protocol.class_index = 0; alpha = Some 0.5; beta = None } ];
           });
    |]
  in
  let outcome, _ = execute requests in
  let delta_response = outcome.Batcher.responses.(1) in
  check_bool "delta ok" true (ok delta_response);
  check_bool "delta served hot" true
    (Json.member "from_hot" delta_response = Some (Json.Bool true));
  check_bool "changed classes reported" true
    (Json.member "changed_classes" delta_response
    = Some (Json.List [ Json.Int 0 ]));
  let fresh = Solver.solution_of_convolution (Convolution.solve changed) in
  check_bool "log G bit-identical to fresh solve" true
    (Int64.equal
       (Int64.bits_of_float (response_float "log_g" delta_response))
       (Int64.bits_of_float fresh.Solver.log_normalization));
  List.iter
    (fun classes ->
      check_hot_matches_stateless
        (Printf.sprintf "admission R=%d" classes)
        (admission_stream ~classes))
    admission_classes

let test_unknown_tree_and_bad_change () =
  let model = small_model () in
  let outcome, _ =
    execute
      [|
        request 0 (Protocol.Blocking { tree = "ghost" });
        solve_request 1 model;
        request 2
          (Protocol.Delta
             {
               tree = "t";
               changes =
                 [ { Protocol.class_index = 9; alpha = Some 0.1; beta = None } ];
             });
      |]
  in
  check_bool "unknown tree fails" false (ok outcome.Batcher.responses.(0));
  check_bool "solve succeeds" true (ok outcome.Batcher.responses.(1));
  check_bool "out-of-range change fails" false (ok outcome.Batcher.responses.(2));
  (* Errors must carry the request id and a message, and never leak as
     exceptions out of execute. *)
  check_bool "error id echoed" true
    (Json.member "id" outcome.Batcher.responses.(0) = Some (Json.Int 0));
  check_bool "error message present" true
    (match Json.member "error" outcome.Batcher.responses.(0) with
    | Some (Json.String _) -> true
    | _ -> false)

let test_admit_semantics () =
  let model = small_model () in
  let weights = [| 1.0; 0.25 |] in
  let outcome, _ =
    execute
      [|
        solve_request 0 model;
        request 1 (Protocol.Shadow_costs { tree = "t"; weights });
        request 2 (Protocol.Admit { tree = "t"; class_index = 1; weights });
      |]
  in
  let shadow_response = outcome.Batcher.responses.(1) in
  let admit_response = outcome.Batcher.responses.(2) in
  check_bool "both ok" true (ok shadow_response && ok admit_response);
  let shadow =
    match Json.member "shadow_costs" shadow_response with
    | Some (Json.List costs) -> (
        match List.nth costs 1 with
        | Json.Float f -> f
        | _ -> Alcotest.fail "shadow cost not a float")
    | _ -> Alcotest.fail "shadow_costs missing"
  in
  check_bool "same shadow cost both ways" true
    (Int64.equal
       (Int64.bits_of_float (response_float "shadow_cost" admit_response))
       (Int64.bits_of_float shadow));
  let weight = response_float "weight" admit_response in
  let net_gain = response_float "net_gain" admit_response in
  check_close "net gain is weight - shadow" (weight -. shadow) net_gain;
  check_bool "admit iff revenue-positive" true
    (Json.member "admit" admit_response = Some (Json.Bool (weight >= shadow)))

let test_stats_and_shutdown () =
  let model = small_model () in
  let outcome, telemetry =
    execute
      [|
        solve_request 0 model;
        request 1 Protocol.Stats;
        request 2 Protocol.Shutdown;
      |]
  in
  check_bool "shutdown flagged" true outcome.Batcher.shutdown;
  let stats = outcome.Batcher.responses.(1) in
  check_bool "stats ok" true (ok stats);
  (match Json.member "telemetry" stats with
  | Some summary ->
      check_bool "solve counted before stats" true
        (match Json.member "solves" summary with
        | Some (Json.Int n) -> n >= 1
        | _ -> false);
      check_bool "record list stripped from daemon stats" true
        (Json.member "records" summary = None)
  | None -> Alcotest.fail "stats missing telemetry");
  (match Json.member "registry" stats with
  | Some registry_stats ->
      check_bool "one resident tree" true
        (Json.member "entries" registry_stats = Some (Json.Int 1))
  | None -> Alcotest.fail "stats missing registry");
  (* Every request produced a telemetry record, stats and shutdown
     included. *)
  check_int "three records" 3 (Telemetry.count telemetry)

let test_multi_tree_batch_isolated () =
  (* Two trees in one batch: groups run on separate workers yet each
     response matches the corresponding single-tree run. *)
  let model_a = small_model () in
  let model_b =
    Model.square ~size:6
      ~classes:[ poisson ~name:"x" 0.2; pascal ~name:"y" ~alpha:0.2 ~beta:0.05 () ]
  in
  let batch =
    [|
      solve_request ~tree:"a" 0 model_a;
      solve_request ~tree:"b" 1 model_b;
      request 2 (Protocol.Blocking { tree = "a" });
      request 3 (Protocol.Blocking { tree = "b" });
    |]
  in
  let outcome, _ = execute batch in
  let solo_a, _ =
    execute [| solve_request ~tree:"a" 0 model_a; request 2 (Protocol.Blocking { tree = "a" }) |]
  in
  let solo_b, _ =
    execute [| solve_request ~tree:"b" 1 model_b; request 3 (Protocol.Blocking { tree = "b" }) |]
  in
  check_bool "tree a solve unaffected by batching" true
    (String.equal
       (Json.to_string outcome.Batcher.responses.(0))
       (Json.to_string solo_a.Batcher.responses.(0)));
  check_bool "tree a read unaffected by batching" true
    (String.equal
       (Json.to_string outcome.Batcher.responses.(2))
       (Json.to_string solo_a.Batcher.responses.(1)));
  check_bool "tree b solve unaffected by batching" true
    (String.equal
       (Json.to_string outcome.Batcher.responses.(1))
       (Json.to_string solo_b.Batcher.responses.(0)));
  check_bool "tree b read unaffected by batching" true
    (String.equal
       (Json.to_string outcome.Batcher.responses.(3))
       (Json.to_string solo_b.Batcher.responses.(1)))

let test_pipeline_shutdown_discards_inflight () =
  let registry = Registry.create () in
  let telemetry = Telemetry.create () in
  let pipeline = Batcher.Pipeline.start ~domains:1 ~registry ~telemetry () in
  Batcher.Pipeline.submit pipeline [| solve_request 0 (small_model ()) |];
  (* No [collect]: shutdown waits out the executing batch, discards its
     outcome, joins the worker and closes the pipe — the crash-cleanup
     path [Server.run]'s finalizer relies on when an exception unwinds
     past an in-flight batch. *)
  Batcher.Pipeline.shutdown pipeline;
  check_bool "notify pipe closed" true
    (match
       Unix.read (Batcher.Pipeline.descriptor pipeline) (Bytes.create 1) 0 1
     with
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> true
    | _ -> false)

(* ---------- pipelined vs sequential serving ---------- *)

(* Run [Server.run] in-process over pipes, write [lines], read exactly
   one response line per request, and return the raw response bytes.
   The stream ends with a shutdown so the server exits and joins. *)
let run_server_over_pipes ~pipelined lines =
  let in_r, in_w = Unix.pipe ~cloexec:false () in
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let server =
    Domain.spawn (fun () ->
        let config =
          (* One batcher domain: the pipeline worker plus band workers
             already oversubscribe a small CI machine. *)
          { Server.default_config with domains = Some 1; pipelined }
        in
        Server.run ~config ~input:in_r ~output:out_w ())
  in
  let payload =
    Bytes.of_string (String.concat "" (List.map (fun l -> l ^ "\n") lines))
  in
  let rec write_all offset =
    if offset < Bytes.length payload then
      match Unix.write in_w payload offset (Bytes.length payload - offset) with
      | written -> write_all (offset + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all offset
  in
  write_all 0;
  Unix.close in_w;
  let expected = List.length lines in
  let buffer = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let newlines () =
    String.fold_left
      (fun acc c -> if c = '\n' then acc + 1 else acc)
      0 (Buffer.contents buffer)
  in
  let rec read_responses () =
    if newlines () < expected then
      match Unix.read out_r chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes buffer chunk 0 n;
          read_responses ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_responses ()
  in
  read_responses ();
  Domain.join server;
  Unix.close in_r;
  Unix.close out_r;
  Unix.close out_w;
  Buffer.contents buffer

let test_pipelined_matches_sequential_bytes () =
  let model = small_model () in
  (* The mixed stream is deterministic (no stats: telemetry timings
     differ run to run); pipelining may group it into different batches
     than sequential serving, and the response bytes must not care. *)
  let lines =
    Array.to_list (Array.map serialize (mixed_stream model))
    @ [ serialize (request 9 Protocol.Shutdown) ]
  in
  let pipelined = run_server_over_pipes ~pipelined:true lines in
  let sequential = run_server_over_pipes ~pipelined:false lines in
  check_int "pipelined answers every request"
    (List.length lines)
    (String.fold_left
       (fun acc c -> if c = '\n' then acc + 1 else acc)
       0 pipelined);
  check_bool "pipelined byte stream identical to sequential" true
    (String.equal pipelined sequential)

let test_server_config_validation () =
  let config batch_limit capacity domains =
    { Server.default_config with batch_limit; capacity; domains }
  in
  let input = Unix.stdin and output = Unix.stdout in
  check_invalid_contains "batch_limit names its value"
    ~substring:"batch_limit=0" (fun () ->
      Server.run ~config:(config 0 None None) ~input ~output ());
  check_invalid_contains "capacity names its value" ~substring:"capacity=-2"
    (fun () ->
      Server.run ~config:(config 16 (Some (-2)) None) ~input ~output ());
  check_invalid_contains "domains names its value" ~substring:"domains=0"
    (fun () -> Server.run ~config:(config 16 None (Some 0)) ~input ~output ())

(* ---------- end to end through the executable ---------- *)

let serve_exe = "../bin/crossbar_serve.exe"

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop acc =
        match input_line ic with
        | line -> loop (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      loop [])

let test_end_to_end_stdin () =
  let input = "serve_input.txt" and output = "serve_output.txt" in
  let oc = open_out input in
  output_string oc
    ({|{"id":1,"op":"solve","tree":"t","model":{"inputs":8,"outputs":8,"classes":[{"name":"p","bandwidth":1,"alpha":0.4,"mu":1.0},{"name":"q","bandwidth":2,"alpha":0.3,"beta":0.1,"mu":1.0}]}}|}
   ^ "\n" ^ {|{"id":2,"op":"blocking","tree":"t"}|} ^ "\n"
   ^ {|{"id":3,"op":"delta","tree":"t","changes":[{"class":0,"alpha":0.5}]}|}
   ^ "\n" ^ {|{"id":4,"op":"oops"}|} ^ "\n" ^ {|{"id":5,"op":"stats"}|} ^ "\n"
   ^ {|{"id":6,"op":"shutdown"}|} ^ "\n");
  close_out oc;
  let command =
    Printf.sprintf "%s --domains 2 < %s > %s 2>/dev/null" serve_exe input
      output
  in
  check_int "daemon exits cleanly" 0 (Sys.command command);
  let lines = read_lines output in
  check_int "one response per request" 6 (List.length lines);
  List.iteri
    (fun i line ->
      match Json.of_string line with
      | Error m -> Alcotest.failf "response %d is not JSON (%s): %s" i m line
      | Ok response ->
          check_bool
            (Printf.sprintf "response %d id in request order" i)
            true
            (Json.member "id" response = Some (Json.Int (i + 1)));
          let expect_ok = i <> 3 in
          check_bool
            (Printf.sprintf "response %d ok=%b" i expect_ok)
            true
            (match Json.member "ok" response with
            | Some (Json.Bool b) -> Bool.equal b expect_ok
            | _ -> false))
    lines;
  Sys.remove input;
  Sys.remove output

let test_end_to_end_eof_without_shutdown () =
  (* EOF on stdin with no socket: the daemon drains and exits 0 rather
     than hanging. *)
  let input = "serve_eof_input.txt" and output = "serve_eof_output.txt" in
  let oc = open_out input in
  output_string oc ({|{"id":1,"op":"stats"}|} ^ "\n");
  close_out oc;
  check_int "exits on EOF" 0
    (Sys.command
       (Printf.sprintf "%s < %s > %s 2>/dev/null" serve_exe input output));
  check_int "answered before exiting" 1 (List.length (read_lines output));
  Sys.remove input;
  Sys.remove output

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          case "request roundtrips" test_protocol_roundtrips;
          case "rejects malformed" test_protocol_rejects_malformed;
          case "model roundtrip" test_protocol_model_roundtrip;
        ] );
      ( "registry",
        [
          case "install and delta path" test_registry_install_and_delta_path;
          case "LRU eviction" test_registry_lru_eviction;
          case "eviction recycles into the arenas"
            test_registry_eviction_recycles;
          case "eviction racing a replace is dropped at drain"
            test_registry_eviction_race_with_replace;
          case "drain recycles only the newest generation per name"
            test_registry_drain_keeps_newest_generation;
        ] );
      ( "batcher",
        [
          case "batched equals one-at-a-time" test_batched_equals_one_at_a_time;
          case "delta matches fresh solve" test_delta_matches_fresh_solve;
          case "unknown tree and bad change" test_unknown_tree_and_bad_change;
          case "admit semantics" test_admit_semantics;
          case "stats and shutdown" test_stats_and_shutdown;
          case "multi-tree batch isolated" test_multi_tree_batch_isolated;
          case "pipeline shutdown discards an uncollected batch"
            test_pipeline_shutdown_discards_inflight;
        ] );
      ( "daemon",
        [
          case "pipelined equals sequential byte-for-byte"
            test_pipelined_matches_sequential_bytes;
          case "config validation names offending values"
            test_server_config_validation;
          case "end to end over stdin" test_end_to_end_stdin;
          case "EOF without shutdown" test_end_to_end_eof_without_shutdown;
        ] );
    ]
