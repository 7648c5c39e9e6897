module Json = Crossbar_engine.Json
module Model = Crossbar.Model
module Traffic = Crossbar.Traffic
module Measures = Crossbar.Measures

type change = { class_index : int; alpha : float option; beta : float option }

type query =
  | Solve of { tree : string; model : Model.t }
  | Delta of { tree : string; changes : change list }
  | Blocking of { tree : string }
  | Shadow_costs of { tree : string; weights : float array }
  | Admit of { tree : string; class_index : int; weights : float array }
  | Stats
  | Shutdown

type request = { id : Json.t; query : query }

let ( let* ) = Result.bind

(* ---------- field accessors ---------- *)

let number_of_json = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | Json.Null | Json.Bool _ | Json.String _ | Json.List _ | Json.Assoc _ ->
      None

let float_field json name =
  match Json.member name json with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match number_of_json v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "field %S: expected a number" name))

let opt_float_field json name =
  match Json.member name json with
  | None -> Ok None
  | Some v -> (
      match number_of_json v with
      | Some f -> Ok (Some f)
      | None -> Error (Printf.sprintf "field %S: expected a number" name))

let int_field json name =
  match Json.member name json with
  | Some (Json.Int i) -> Ok i
  | Some _ -> Error (Printf.sprintf "field %S: expected an integer" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let string_field json name =
  match Json.member name json with
  | Some (Json.String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S: expected a string" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let list_field json name =
  match Json.member name json with
  | Some (Json.List items) -> Ok items
  | Some _ -> Error (Printf.sprintf "field %S: expected a list" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let weights_field json =
  let* items = list_field json "weights" in
  let* weights =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        match number_of_json item with
        | Some f -> Ok (f :: acc)
        | None -> Error "field \"weights\": expected a list of numbers")
      (Ok []) items
  in
  Ok (Array.of_list (List.rev weights))

(* ---------- model ---------- *)

let class_to_json (c : Traffic.t) =
  Json.Assoc
    [
      ("name", Json.String c.Traffic.name);
      ("bandwidth", Json.Int c.Traffic.bandwidth);
      ("alpha", Json.Float c.Traffic.alpha);
      ("beta", Json.Float c.Traffic.beta);
      ("mu", Json.Float c.Traffic.service_rate);
    ]

let class_of_json json =
  let* name = string_field json "name" in
  let* bandwidth = int_field json "bandwidth" in
  let* alpha = float_field json "alpha" in
  let* beta = opt_float_field json "beta" in
  let beta = Option.value ~default:0. beta in
  let* mu = float_field json "mu" in
  match
    Traffic.create ~name ~bandwidth ~alpha ~beta ~service_rate:mu ()
  with
  | c -> Ok c
  | exception Invalid_argument message ->
      Error (Printf.sprintf "class %S: %s" name message)

let model_to_json model =
  Json.Assoc
    [
      ("inputs", Json.Int (Model.inputs model));
      ("outputs", Json.Int (Model.outputs model));
      ( "classes",
        Json.List
          (Array.to_list (Array.map class_to_json (Model.classes model))) );
    ]

let model_of_json json =
  let* inputs = int_field json "inputs" in
  let* outputs = int_field json "outputs" in
  let* class_items = list_field json "classes" in
  let* classes =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        let* c = class_of_json item in
        Ok (c :: acc))
      (Ok []) class_items
  in
  match Model.create ~inputs ~outputs ~classes:(List.rev classes) with
  | model -> Ok model
  | exception Invalid_argument message -> Error message

(* ---------- requests ---------- *)

let op_name = function
  | Solve _ -> "solve"
  | Delta _ -> "delta"
  | Blocking _ -> "blocking"
  | Shadow_costs _ -> "shadow_costs"
  | Admit _ -> "admit"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

let tree_name = function
  | Solve { tree; _ }
  | Delta { tree; _ }
  | Blocking { tree }
  | Shadow_costs { tree; _ }
  | Admit { tree; _ } ->
      Some tree
  | Stats | Shutdown -> None

let change_of_json json =
  let* class_index = int_field json "class" in
  let* alpha = opt_float_field json "alpha" in
  let* beta = opt_float_field json "beta" in
  match (alpha, beta) with
  | None, None ->
      Error "change: at least one of \"alpha\"/\"beta\" is required"
  | _ -> Ok { class_index; alpha; beta }

let change_to_json { class_index; alpha; beta } =
  Json.Assoc
    (("class", Json.Int class_index)
    :: (match alpha with Some a -> [ ("alpha", Json.Float a) ] | None -> [])
    @ match beta with Some b -> [ ("beta", Json.Float b) ] | None -> [])

let request_of_json json =
  let* id =
    match Json.member "id" json with
    | Some id -> Ok id
    | None -> Error "missing field \"id\""
  in
  let* op = string_field json "op" in
  let tree () = string_field json "tree" in
  let* query =
    match op with
    | "solve" ->
        let* tree = tree () in
        let* model_json =
          match Json.member "model" json with
          | Some m -> Ok m
          | None -> Error "missing field \"model\""
        in
        let* model = model_of_json model_json in
        Ok (Solve { tree; model })
    | "delta" ->
        let* tree = tree () in
        let* items = list_field json "changes" in
        let* changes =
          List.fold_left
            (fun acc item ->
              let* acc = acc in
              let* c = change_of_json item in
              Ok (c :: acc))
            (Ok []) items
        in
        (match changes with
        | [] -> Error "field \"changes\": must be non-empty"
        | _ -> Ok (Delta { tree; changes = List.rev changes }))
    | "blocking" ->
        let* tree = tree () in
        Ok (Blocking { tree })
    | "shadow_costs" ->
        let* tree = tree () in
        let* weights = weights_field json in
        Ok (Shadow_costs { tree; weights })
    | "admit" ->
        let* tree = tree () in
        let* class_index = int_field json "class" in
        let* weights = weights_field json in
        Ok (Admit { tree; class_index; weights })
    | "stats" -> Ok Stats
    | "shutdown" -> Ok Shutdown
    | other -> Error (Printf.sprintf "unknown op %S" other)
  in
  Ok { id; query }

let request_of_line line =
  match Json.of_string line with
  | Error message -> Error (Printf.sprintf "malformed JSON: %s" message)
  | Ok json -> request_of_json json

let request_to_json { id; query } =
  let base = [ ("id", id); ("op", Json.String (op_name query)) ] in
  let fields =
    match query with
    | Solve { tree; model } ->
        [ ("tree", Json.String tree); ("model", model_to_json model) ]
    | Delta { tree; changes } ->
        [
          ("tree", Json.String tree);
          ("changes", Json.List (List.map change_to_json changes));
        ]
    | Blocking { tree } -> [ ("tree", Json.String tree) ]
    | Shadow_costs { tree; weights } ->
        [
          ("tree", Json.String tree);
          ( "weights",
            Json.List
              (Array.to_list (Array.map (fun w -> Json.Float w) weights)) );
        ]
    | Admit { tree; class_index; weights } ->
        [
          ("tree", Json.String tree);
          ("class", Json.Int class_index);
          ( "weights",
            Json.List
              (Array.to_list (Array.map (fun w -> Json.Float w) weights)) );
        ]
    | Stats | Shutdown -> []
  in
  Json.Assoc (base @ fields)

let request_to_line request = Json.to_string (request_to_json request)

(* ---------- responses ---------- *)

let measures_to_json (m : Measures.t) =
  Json.Assoc
    [
      ("busy_ports", Json.Float m.Measures.busy_ports);
      ("input_utilization", Json.Float m.Measures.input_utilization);
      ("output_utilization", Json.Float m.Measures.output_utilization);
      ( "per_class",
        Json.List
          (Array.to_list
             (Array.map
                (fun (c : Measures.per_class) ->
                  Json.Assoc
                    [
                      ("name", Json.String c.Measures.name);
                      ("bandwidth", Json.Int c.Measures.bandwidth);
                      ("offered_load", Json.Float c.Measures.offered_load);
                      ("non_blocking", Json.Float c.Measures.non_blocking);
                      ("blocking", Json.Float c.Measures.blocking);
                      ("concurrency", Json.Float c.Measures.concurrency);
                      ("throughput", Json.Float c.Measures.throughput);
                    ])
                m.Measures.per_class)) );
    ]

type solved = {
  tree : string;
  from_hot : bool;
  tree_combines : int;
  banded_combines : int;
  log_g : float;
  measures : Measures.t;
}

type response =
  | Solve_ok of { id : Json.t; solved : solved }
  | Delta_ok of { id : Json.t; solved : solved; changed_classes : int list }
  | Blocking_ok of {
      id : Json.t;
      tree : string;
      classes : Measures.per_class array;
    }
  | Shadow_costs_ok of {
      id : Json.t;
      tree : string;
      revenue : float;
      shadow_costs : float array;
    }
  | Admit_ok of {
      id : Json.t;
      tree : string;
      class_index : int;
      admit : bool;
      weight : float;
      shadow_cost : float;
      net_gain : float;
    }
  | Stats_ok of { id : Json.t; fields : (string * Json.t) list }
  | Shutdown_ok of { id : Json.t }
  | Failed of { id : Json.t; message : string }

let error_response ~id message = Failed { id; message }

(* The field writer: key text as literals, values straight into [b]. *)

let add_bool b v = Buffer.add_string b (if v then "true" else "false")
let add_int b i = Buffer.add_string b (string_of_int i)

let add_array add b items =
  Buffer.add_char b '[';
  Array.iteri
    (fun i item ->
      if i > 0 then Buffer.add_char b ',';
      add b item)
    items;
  Buffer.add_char b ']'

(* [{"id":id,"ok":true,"op":op] — the caller closes the object. *)
let add_ok_head b ~id ~op =
  Buffer.add_string b "{\"id\":";
  Json.write b id;
  Buffer.add_string b ",\"ok\":true,\"op\":\"";
  Buffer.add_string b op;
  Buffer.add_char b '"'

let add_per_class b (c : Measures.per_class) =
  Buffer.add_string b "{\"name\":";
  Json.add_string b c.Measures.name;
  Buffer.add_string b ",\"bandwidth\":";
  add_int b c.Measures.bandwidth;
  Buffer.add_string b ",\"offered_load\":";
  Json.add_float b c.Measures.offered_load;
  Buffer.add_string b ",\"non_blocking\":";
  Json.add_float b c.Measures.non_blocking;
  Buffer.add_string b ",\"blocking\":";
  Json.add_float b c.Measures.blocking;
  Buffer.add_string b ",\"concurrency\":";
  Json.add_float b c.Measures.concurrency;
  Buffer.add_string b ",\"throughput\":";
  Json.add_float b c.Measures.throughput;
  Buffer.add_char b '}'

let add_measures b (m : Measures.t) =
  Buffer.add_string b "{\"busy_ports\":";
  Json.add_float b m.Measures.busy_ports;
  Buffer.add_string b ",\"input_utilization\":";
  Json.add_float b m.Measures.input_utilization;
  Buffer.add_string b ",\"output_utilization\":";
  Json.add_float b m.Measures.output_utilization;
  Buffer.add_string b ",\"per_class\":";
  add_array add_per_class b m.Measures.per_class;
  Buffer.add_char b '}'

let add_solved b s =
  Buffer.add_string b ",\"tree\":";
  Json.add_string b s.tree;
  Buffer.add_string b ",\"from_hot\":";
  add_bool b s.from_hot;
  Buffer.add_string b ",\"tree_combines\":";
  add_int b s.tree_combines;
  Buffer.add_string b ",\"banded_combines\":";
  add_int b s.banded_combines;
  Buffer.add_string b ",\"log_g\":";
  Json.add_float b s.log_g;
  Buffer.add_string b ",\"measures\":";
  add_measures b s.measures

let add_blocking_class b (c : Measures.per_class) =
  Buffer.add_string b "{\"name\":";
  Json.add_string b c.Measures.name;
  Buffer.add_string b ",\"blocking\":";
  Json.add_float b c.Measures.blocking;
  Buffer.add_string b ",\"non_blocking\":";
  Json.add_float b c.Measures.non_blocking;
  Buffer.add_char b '}'

let add_tree b tree =
  Buffer.add_string b ",\"tree\":";
  Json.add_string b tree

let write_response b = function
  | Solve_ok { id; solved } ->
      add_ok_head b ~id ~op:"solve";
      add_solved b solved;
      Buffer.add_char b '}'
  | Delta_ok { id; solved; changed_classes } ->
      add_ok_head b ~id ~op:"delta";
      add_solved b solved;
      Buffer.add_string b ",\"changed_classes\":[";
      List.iteri
        (fun i index ->
          if i > 0 then Buffer.add_char b ',';
          add_int b index)
        changed_classes;
      Buffer.add_string b "]}"
  | Blocking_ok { id; tree; classes } ->
      add_ok_head b ~id ~op:"blocking";
      add_tree b tree;
      Buffer.add_string b ",\"classes\":";
      add_array add_blocking_class b classes;
      Buffer.add_char b '}'
  | Shadow_costs_ok { id; tree; revenue; shadow_costs } ->
      add_ok_head b ~id ~op:"shadow_costs";
      add_tree b tree;
      Buffer.add_string b ",\"revenue\":";
      Json.add_float b revenue;
      Buffer.add_string b ",\"shadow_costs\":";
      add_array Json.add_float b shadow_costs;
      Buffer.add_char b '}'
  | Admit_ok { id; tree; class_index; admit; weight; shadow_cost; net_gain } ->
      add_ok_head b ~id ~op:"admit";
      add_tree b tree;
      Buffer.add_string b ",\"class\":";
      add_int b class_index;
      Buffer.add_string b ",\"admit\":";
      add_bool b admit;
      Buffer.add_string b ",\"weight\":";
      Json.add_float b weight;
      Buffer.add_string b ",\"shadow_cost\":";
      Json.add_float b shadow_cost;
      Buffer.add_string b ",\"net_gain\":";
      Json.add_float b net_gain;
      Buffer.add_char b '}'
  | Stats_ok { id; fields } ->
      add_ok_head b ~id ~op:"stats";
      List.iter
        (fun (key, value) ->
          Buffer.add_char b ',';
          Json.add_string b key;
          Buffer.add_char b ':';
          Json.write b value)
        fields;
      Buffer.add_char b '}'
  | Shutdown_ok { id } ->
      add_ok_head b ~id ~op:"shutdown";
      Buffer.add_char b '}'
  | Failed { id; message } ->
      Buffer.add_string b "{\"id\":";
      Json.write b id;
      Buffer.add_string b ",\"ok\":false,\"error\":";
      Json.add_string b message;
      Buffer.add_char b '}'

let response_to_line response =
  let b = Buffer.create 256 in
  write_response b response;
  Buffer.contents b
