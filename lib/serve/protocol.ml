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

(* Revenue weights must be positive and finite: the one check both
   request readers make. *)
let valid_weights weights =
  Array.for_all (fun w -> Float.is_finite w && w > 0.) weights

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
  let weights = Array.of_list (List.rev weights) in
  if valid_weights weights then Ok weights
  else Error "field \"weights\": expected positive finite numbers"

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

(* ---------- the direct reader ----------

   Reads a request line straight into a [request], with a cursor (an
   index into the line) and no [Json.t] tree.  It takes only lines it
   can read whole and the same way [request_of_json] would: on anything
   else (a [solve], an error of any kind, a string escape, a repeated
   key, a list or object id) it raises [Fallback], and the line goes
   through [Json.of_string] and [request_of_json], the only code that
   writes an error message.  Unknown keys are skipped, but their values
   are checked to be JSON as strictly as [Json.of_string] checks them. *)

exception Fallback

let fallback () = raise_notrace Fallback

let rec skip_ws text i =
  if i < String.length text then
    match String.unsafe_get text i with
    | ' ' | '\t' | '\n' | '\r' -> skip_ws text (i + 1)
    | _ -> i
  else i

let char_at text i =
  if i < String.length text then String.unsafe_get text i else fallback ()

let expect text i c = if char_at text i = c then i + 1 else fallback ()

(* The closing quote of the escape-free string whose opening quote is at
   [i]. *)
let string_close text i =
  if char_at text i <> '"' then fallback ();
  let n = String.length text in
  let j = ref (i + 1) in
  while !j < n && String.unsafe_get text !j <> '"' do
    if String.unsafe_get text !j = '\\' then fallback ();
    incr j
  done;
  if !j >= n then fallback ();
  !j

let rec same_from text start word k =
  k = String.length word
  || String.unsafe_get text (start + k) = String.unsafe_get word k
     && same_from text start word (k + 1)

(* Whether [text.[start .. stop - 1]] is [word], compared in place. *)
let span_is text start stop word =
  stop - start = String.length word && same_from text start word 0

let literal text i word =
  let stop = i + String.length word in
  if stop <= String.length text && same_from text i word 0 then stop
  else fallback ()

(* The end of the number token at [i]. *)
let number_stop text i =
  let stop = Json.number_end text i in
  if stop = i then fallback () else stop

let number_value text i stop =
  match Json.number text i stop with Some v -> v | None -> fallback ()

let float_value text i stop =
  match number_value text i stop with
  | Json.Int n -> float_of_int n
  | Json.Float f -> f
  | Json.Null | Json.Bool _ | Json.String _ | Json.List _ | Json.Assoc _ ->
      fallback ()

let int_value text i stop =
  match number_value text i stop with
  | Json.Int n -> n
  | Json.Null | Json.Bool _ | Json.Float _ | Json.String _ | Json.List _
  | Json.Assoc _ ->
      fallback ()

(* Skip the value at [i] (after optional whitespace), checking it as
   [Json.of_string] does; the index past it. *)
let rec skip_value text i =
  let i = skip_ws text i in
  match char_at text i with
  | '"' -> string_close text i + 1
  | 't' -> literal text i "true"
  | 'f' -> literal text i "false"
  | 'n' -> literal text i "null"
  | '[' ->
      let i = skip_ws text (i + 1) in
      if char_at text i = ']' then i + 1
      else begin
        let i = ref (skip_ws text (skip_value text i)) in
        while char_at text !i = ',' do
          i := skip_ws text (skip_value text (!i + 1))
        done;
        expect text !i ']'
      end
  | '{' ->
      let i = skip_ws text (i + 1) in
      if char_at text i = '}' then i + 1
      else begin
        let i = ref (skip_member text i) in
        while char_at text !i = ',' do
          i := skip_member text (!i + 1)
        done;
        expect text !i '}'
      end
  | _ ->
      let stop = number_stop text i in
      ignore (number_value text i stop);
      stop

(* Skip [key : value] and the whitespace after it. *)
and skip_member text i =
  let key = skip_ws text i in
  let colon = skip_ws text (string_close text key + 1) in
  skip_ws text (skip_value text (expect text colon ':'))

type op =
  | No_op
  | Delta_op
  | Blocking_op
  | Shadow_costs_op
  | Admit_op
  | Stats_op
  | Shutdown_op

(* A request as the reader fills it in.  [seen] has a bit per known key
   read so far, [change_seen] per key of the change being read: a
   repeated key falls back, as does a missing one. *)
type draft = {
  line : string;
  mutable seen : int;
  mutable id : Json.t;
  mutable op : op;
  mutable tree : string;
  mutable class_index : int;
  mutable weights : float array;
  mutable changes : change list;
  mutable change_seen : int;
  mutable change_class : int;
  mutable alpha : float option;
  mutable beta : float option;
}

let id_key = 1
let op_key = 2
let tree_key = 4
let class_key = 8
let weights_key = 16
let changes_key = 32
let alpha_key = 2
let beta_key = 4

let claim_key d bit =
  if d.seen land bit <> 0 then fallback () else d.seen <- d.seen lor bit

let claim_change_key d bit =
  if d.change_seen land bit <> 0 then fallback ()
  else d.change_seen <- d.change_seen lor bit

(* The id at [i]: any JSON scalar. *)
let read_id d i =
  let text = d.line in
  let i = skip_ws text i in
  match char_at text i with
  | '"' ->
      let close = string_close text i in
      d.id <- Json.String (String.sub text (i + 1) (close - i - 1));
      close + 1
  | 't' ->
      d.id <- Json.Bool true;
      literal text i "true"
  | 'f' ->
      d.id <- Json.Bool false;
      literal text i "false"
  | 'n' ->
      d.id <- Json.Null;
      literal text i "null"
  | '[' | '{' -> fallback ()
  | _ ->
      let stop = number_stop text i in
      d.id <- number_value text i stop;
      stop

let read_op d i =
  let text = d.line in
  let start = skip_ws text i + 1 in
  let close = string_close text (start - 1) in
  d.op <-
    (if span_is text start close "delta" then Delta_op
     else if span_is text start close "blocking" then Blocking_op
     else if span_is text start close "shadow_costs" then Shadow_costs_op
     else if span_is text start close "admit" then Admit_op
     else if span_is text start close "stats" then Stats_op
     else if span_is text start close "shutdown" then Shutdown_op
     else fallback ());
  close + 1

let read_tree d i =
  let text = d.line in
  let start = skip_ws text i + 1 in
  let close = string_close text (start - 1) in
  d.tree <- String.sub text start (close - start);
  close + 1

let read_int text i =
  let i = skip_ws text i in
  let stop = number_stop text i in
  (int_value text i stop, stop)

let read_float text i =
  let i = skip_ws text i in
  let stop = number_stop text i in
  (float_value text i stop, stop)

(* A list of numbers, as floats.  Its length is one more than the count
   of commas before the first [']']: a number token holds neither. *)
let read_weights d i =
  let text = d.line in
  let i = skip_ws text (expect text (skip_ws text i) '[') in
  if char_at text i = ']' then begin
    d.weights <- [||];
    i + 1
  end
  else begin
    let close =
      match String.index_from_opt text i ']' with
      | Some close -> close
      | None -> fallback ()
    in
    let count = ref 1 in
    for k = i to close - 1 do
      if String.unsafe_get text k = ',' then incr count
    done;
    let weights = Array.make !count 0. in
    let pos = ref i in
    for k = 0 to !count - 1 do
      let start = skip_ws text !pos in
      let stop = number_stop text start in
      Array.unsafe_set weights k (float_value text start stop);
      pos := expect text (skip_ws text stop) (if k = !count - 1 then ']' else ',')
    done;
    d.weights <- weights;
    !pos
  end

let read_change_member d key key_stop value =
  let text = d.line in
  if span_is text key key_stop "class" then begin
    claim_change_key d class_key;
    let n, stop = read_int text value in
    d.change_class <- n;
    stop
  end
  else if span_is text key key_stop "alpha" then begin
    claim_change_key d alpha_key;
    let a, stop = read_float text value in
    d.alpha <- Some a;
    stop
  end
  else if span_is text key key_stop "beta" then begin
    claim_change_key d beta_key;
    let b, stop = read_float text value in
    d.beta <- Some b;
    stop
  end
  else skip_value text value

let rec read_member d key key_stop value =
  let text = d.line in
  if span_is text key key_stop "id" then begin
    claim_key d id_key;
    read_id d value
  end
  else if span_is text key key_stop "op" then begin
    claim_key d op_key;
    read_op d value
  end
  else if span_is text key key_stop "tree" then begin
    claim_key d tree_key;
    read_tree d value
  end
  else if span_is text key key_stop "class" then begin
    claim_key d class_key;
    let n, stop = read_int text value in
    d.class_index <- n;
    stop
  end
  else if span_is text key key_stop "weights" then begin
    claim_key d weights_key;
    read_weights d value
  end
  else if span_is text key key_stop "changes" then begin
    claim_key d changes_key;
    read_changes d value
  end
  else skip_value text value

(* The object at [i] (after optional whitespace), each member read by
   [member] (the request's or a change's); the index past its closing
   brace. *)
and read_object d i member =
  let text = d.line in
  let i = skip_ws text (expect text (skip_ws text i) '{') in
  if char_at text i = '}' then i + 1
  else begin
    let pos = ref i and more = ref true in
    while !more do
      let key = skip_ws text !pos in
      let key_stop = string_close text key in
      let value = expect text (skip_ws text (key_stop + 1)) ':' in
      let next = skip_ws text (member d (key + 1) key_stop value) in
      (match char_at text next with
      | ',' -> ()
      | '}' -> more := false
      | _ -> fallback ());
      pos := next + 1
    done;
    !pos
  end

and read_change d i =
  d.change_seen <- 0;
  d.alpha <- None;
  d.beta <- None;
  let stop = read_object d i read_change_member in
  if d.change_seen land class_key = 0
     || d.change_seen land (alpha_key lor beta_key) = 0
  then fallback ();
  d.changes <-
    { class_index = d.change_class; alpha = d.alpha; beta = d.beta }
    :: d.changes;
  skip_ws d.line stop

(* A non-empty list of changes. *)
and read_changes d i =
  let text = d.line in
  let pos = ref (read_change d (expect text (skip_ws text i) '[')) in
  while char_at text !pos = ',' do
    pos := read_change d (!pos + 1)
  done;
  d.changes <- List.rev d.changes;
  expect text !pos ']'

let read_direct line =
  let d =
    {
      line;
      seen = 0;
      id = Json.Null;
      op = No_op;
      tree = "";
      class_index = 0;
      weights = [||];
      changes = [];
      change_seen = 0;
      change_class = 0;
      alpha = None;
      beta = None;
    }
  in
  let stop = read_object d 0 read_member in
  if skip_ws line stop <> String.length line then fallback ();
  let need keys = if d.seen land keys <> keys then fallback () in
  need (id_key lor op_key);
  let tree = d.tree in
  let query =
    match d.op with
    | Delta_op ->
        need (tree_key lor changes_key);
        Delta { tree; changes = d.changes }
    | Blocking_op ->
        need tree_key;
        Blocking { tree }
    | Shadow_costs_op ->
        need (tree_key lor weights_key);
        if not (valid_weights d.weights) then fallback ();
        Shadow_costs { tree; weights = d.weights }
    | Admit_op ->
        need (tree_key lor class_key lor weights_key);
        if not (valid_weights d.weights) then fallback ();
        Admit { tree; class_index = d.class_index; weights = d.weights }
    | Stats_op -> Stats
    | Shutdown_op -> Shutdown
    | No_op -> fallback ()
  in
  { id = d.id; query }

let read_request line =
  match read_direct line with
  | request -> Ok request
  | exception Fallback -> (
      match Json.of_string line with
      | Error message ->
          Error (Json.Null, Printf.sprintf "malformed JSON: %s" message)
      | Ok json -> (
          match request_of_json json with
          | Ok request -> Ok request
          | Error message ->
              (* Salvage the id, so the client can match the error to
                 its request. *)
              Error (Option.value ~default:Json.Null (Json.member "id" json), message)))

let request_of_line line = Result.map_error snd (read_request line)

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
