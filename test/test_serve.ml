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
  List.iter
    (fun (label, line) ->
      match Protocol.read_request line with
      | Error (Json.Int 1, message) ->
          check_bool label true
            (String.equal message
               "field \"weights\": expected positive finite numbers")
      | Error _ | Ok _ -> Alcotest.failf "%s: %s not refused" label line)
    [
      ("zero weight", {|{"id":1,"op":"admit","tree":"t","class":0,"weights":[1,0]}|});
      ("negative weight", {|{"id":1,"op":"shadow_costs","tree":"t","weights":[-3,1]}|});
      ("infinite weight", {|{"id":1,"op":"shadow_costs","tree":"t","weights":[1e400]}|});
    ];
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

(* ---------- the request reader against its oracle ---------- *)

(* What the oracle, [Json.of_string] then [Protocol.request_of_json],
   makes of a line, in the terms [Protocol.read_request] answers in. *)
let oracle_read line =
  match Json.of_string line with
  | Error message -> Error (Json.Null, "malformed JSON: " ^ message)
  | Ok json -> (
      match Protocol.request_of_json json with
      | Ok request -> Ok request
      | Error message ->
          Error
            (Option.value ~default:Json.Null (Json.member "id" json), message))

(* A request's wire line, plus the bits of every float in it: the line
   alone writes both infinities as [null]. *)
let request_fingerprint (r : Protocol.request) =
  let bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f) in
  let floats =
    match r.Protocol.query with
    | Protocol.Shadow_costs { weights; _ } | Protocol.Admit { weights; _ } ->
        Array.to_list (Array.map bits weights)
    | Protocol.Delta { changes; _ } ->
        List.concat_map
          (fun (c : Protocol.change) ->
            List.map bits (Option.to_list c.alpha @ Option.to_list c.beta))
          changes
    | Protocol.Solve _ | Protocol.Blocking _ | Protocol.Stats
    | Protocol.Shutdown ->
        []
  in
  String.concat " " (Protocol.request_to_line r :: floats)

let show_read = function
  | Ok r -> "Ok " ^ request_fingerprint r
  | Error (id, message) ->
      Printf.sprintf "Error (%s, %S)" (Json.to_string id) message

let reader_agrees line =
  String.equal (show_read (Protocol.read_request line))
    (show_read (oracle_read line))

(* Random request lines, written from a seed: every op (and [solve] and
   unknown ones), fields in random order with random whitespace, known
   fields of the wrong type or missing, repeated keys, keys and strings
   with escapes, unknown fields of every JSON kind (well-formed or not),
   ids of every kind, numbers in every form the number reader takes or
   refuses; then, at times, the line truncated or one byte changed. *)
let request_line_of_seed seed =
  let st = Random.State.make [| seed |] in
  let int n = Random.State.int st n in
  let chance p = Random.State.float st 1.0 < p in
  let pick items = List.nth items (int (List.length items)) in
  let number () =
    if chance 0.03 then pick [ "1e"; "-"; "1-2"; "--1"; "1.2.3"; "e5" ]
    else
    match int 6 with
    | 0 -> string_of_int (int 12 - 3)
    | 1 ->
        let digits = String.init (1 + int 17) (fun _ -> Char.chr (48 + int 10)) in
        let point = int (String.length digits + 2) in
        let mantissa =
          if point > String.length digits then digits
          else
            String.sub digits 0 point ^ "."
            ^ String.sub digits point (String.length digits - point)
        in
        pick [ ""; "-"; "+" ] ^ mantissa
        ^ if chance 0.4 then Printf.sprintf "e%d" (int 61 - 30) else ""
    | 2 -> Printf.sprintf "%.17g" (Random.State.float st 2.0)
    | 3 -> Printf.sprintf "%.17g" (Int64.float_of_bits (Random.State.bits64 st))
    | 4 -> string_of_int (int 9) ^ "." ^ string_of_int (int 1000)
    | _ ->
        pick
          [
            "-0"; "-0.0"; "0"; "0.0"; "1e400"; "-1e400"; "1e-400"; ".5"; "1.";
            "+1"; "01"; "1E2"; "4611686018427387904"; "9007199254740993";
            "0.0000000000000000000001";
          ]
  in
  let text () =
    pick
      [
        {|"t"|}; {|"h0"|}; {|"a b"|}; {|""|}; {|"q\"x"|}; {|"\u0074"|};
        {|"t\n"|}; "\"\xc3\xa9\""; "\"\001\""; {|"unterminated|};
      ]
  in
  let literal () =
    pick [ "true"; "false"; "null"; "tru"; "trux"; "fals"; "falsy"; "nul"; "nulL" ]
  in
  let scalar () =
    match int 3 with 0 -> number () | 1 -> text () | _ -> literal ()
  in
  let ws () =
    if chance 0.7 then ""
    else String.init (1 + int 2) (fun _ -> pick [ ' '; '\t'; '\n'; '\r' ])
  in
  let rec value depth =
    if depth = 0 || chance 0.5 then scalar ()
    else if chance 0.5 then
      Printf.sprintf "[%s%s]" (ws ())
        (String.concat ","
           (List.init (int 4) (fun _ -> ws () ^ value (depth - 1) ^ ws ())))
    else
      Printf.sprintf "{%s%s}" (ws ())
        (String.concat ","
           (List.init (int 3) (fun _ ->
                Printf.sprintf "%s\"%s\"%s:%s" (ws ())
                  (pick [ "k"; "id"; "n" ])
                  (ws ())
                  (ws () ^ value (depth - 1) ^ ws ()))))
  in
  let list items = Printf.sprintf "[%s%s]" (ws ()) (String.concat "," items) in
  let weights () =
    if chance 0.1 then value 2
    else
      list
        (List.init (int 9) (fun _ ->
             ws () ^ (if chance 0.02 then scalar () else number ()) ^ ws ()))
  in
  let class_value () =
    if chance 0.85 then string_of_int (int 4) else scalar ()
  in
  let change () =
    List.filter
      (fun _ -> chance 0.9)
      [ ("class", class_value ()); ("alpha", number ()); ("beta", number ()) ]
    @ if chance 0.1 then [ ("extra", value 2) ] else []
  in
  let render fields =
    Printf.sprintf "{%s%s}" (ws ())
      (String.concat ","
         (List.map
            (fun (key, v) ->
              Printf.sprintf "%s\"%s\"%s:%s%s%s" (ws ()) key (ws ()) (ws ()) v
                (ws ()))
            fields))
  in
  let shuffle fields =
    List.map snd
      (List.sort compare (List.map (fun f -> (Random.State.bits st, f)) fields))
  in
  let with_repeats generate fields =
    if chance 0.1 then
      let key, _ = List.nth fields (int (List.length fields)) in
      fields @ [ (key, generate key) ]
    else fields
  in
  let changes () =
    if chance 0.1 then value 2
    else
      list
        (List.init (int 3) (fun _ ->
             let fields = change () in
             let fields =
               if fields = [] then fields
               else with_repeats (fun _ -> number ()) fields
             in
             render (shuffle fields)))
  in
  let id () =
    match int 6 with
    | 0 | 1 -> string_of_int (int 1000)
    | 2 -> number ()
    | 3 -> text ()
    | 4 -> literal ()
    | _ -> value 2
  in
  let op =
    pick
      [
        "blocking"; "shadow_costs"; "admit"; "delta"; "stats"; "shutdown";
        "solve"; "nope"; {|sh\u0061dow_costs|};
      ]
  in
  let generate = function
    | "id" -> id ()
    | "op" -> if chance 0.9 then Printf.sprintf "\"%s\"" op else scalar ()
    | "tree" -> if chance 0.9 then text () else scalar ()
    | "weights" -> weights ()
    | "class" -> class_value ()
    | "changes" -> changes ()
    | "model" ->
        if chance 0.8 then
          Json.to_string (Protocol.model_to_json (small_model ()))
        else value 2
    | _ -> value 3
  in
  let keys =
    [ "id"; "op"; "tree" ]
    @ (match op with
      | "shadow_costs" -> [ "weights" ]
      | "admit" -> [ "class"; "weights" ]
      | "delta" -> [ "changes" ]
      | "solve" -> [ "model" ]
      | _ -> [])
    @ List.filter (fun _ -> chance 0.1) [ "weights"; "class"; "changes" ]
    @ List.init (int 3) (fun _ -> pick [ "x"; "extra"; "ids"; "Id"; "model" ])
  in
  let keys =
    List.filter_map
      (fun key ->
        if chance 0.03 then None
        else if chance 0.03 then
          (* The same key, its first letter escaped. *)
          Some
            (Printf.sprintf "\\u%04x%s" (Char.code key.[0])
               (String.sub key 1 (String.length key - 1)))
        else Some key)
      keys
  in
  let fields = List.map (fun key -> (key, generate key)) keys in
  let fields = if fields = [] then fields else with_repeats generate fields in
  let line = ws () ^ render (shuffle fields) ^ ws () in
  let n = String.length line in
  if chance 0.1 then String.sub line 0 (int n)
  else if chance 0.1 then
    String.mapi
      (fun i c ->
        if i = n / 2 + int (n / 2) then
          pick [ '"'; '\\'; ','; ':'; '{'; '}'; '['; ']'; '1'; 'e'; '.'; '-'; ' '; 't'; 'x' ]
        else c)
      line
  else line

let reader_matches_oracle =
  QCheck2.Test.make ~name:"request reader equals the Json.t oracle"
    ~count:20_000 ~print:(fun seed -> request_line_of_seed seed)
    QCheck2.Gen.int
    (fun seed -> reader_agrees (request_line_of_seed seed))

(* Lines where the reader and its fallback must agree on more than the
   wire bytes: the first of a repeated key, literals checked in full,
   escapes, ids of every kind. *)
let test_reader_fixed_lines () =
  List.iter
    (fun line ->
      if not (reader_agrees line) then
        Alcotest.failf "reader: %S gives %s, oracle %s" line
          (show_read (Protocol.read_request line))
          (show_read (oracle_read line)))
    [
      {|{"id":1,"op":"blocking","tree":"a","tree":"b"}|};
      {|{"id":1,"id":2,"op":"stats"}|};
      {|{"id":1,"op":"stats","x":trux}|};
      {|{"id":1,"op":"stats","x":[true,fals]}|};
      {|{"id":1,"op":"stats","x":nul}|};
      {|{"id":1,"op":"stats","x":{"k":true,"n":[null,false,"s",-1.5e3]}}|};
      {|{"id":1,"op":"blocking","tree":"a\"b"}|};
      {|{"id":1,"op":"stats"}|};
      {|{"id":[1],"op":"stats"}|};
      {|{"id":{"k":1},"op":"stats"}|};
      {|{"id":-0.0,"op":"stats"}|};
      {|{"id":1e400,"op":"stats"}|};
      {|{"id":"s","op":"nope"}|};
      {|{"id":7,"op":"admit","tree":"t","class":1.0,"weights":[1]}|};
      {|{"id":7,"op":"admit","tree":"t","class":1,"weights":[1,]}|};
      {|{"id":7,"op":"admit","tree":"t","class":1,"weights":[1 2]}|};
      {|{"id":7,"op":"admit","tree":"t","class":0,"weights":[0.5,-0.0]}|};
      {|{"id":7,"op":"blocking","tree":"t","weights":[-1]}|};
      {|{"id":7,"op":"delta","tree":"t","changes":[]}|};
      {|{"id":7,"op":"delta","tree":"t","changes":[{"class":0}]}|};
      {|{"id":7,"op":"delta","tree":"t","changes":[{"class":0,"alpha":1,"alpha":2}]}|};
      {|  { "id" : 7 , "op" : "delta" , "tree" : "t" , "changes" : [ { "beta" : 0.5 , "class" : 1 } ] }  |};
      {|{"id":7,"op":"blocking","tree":"t"} x|};
      {|{"id":7,"op":"blocking","tree":"t"|};
      "{\"id\":7,\"op\":\"blocking\",\"tree\":\"t\"}\r";
    ]

(* Reading a warm request line allocates the request and little else:
   no [Json.t] tree, no copy of a number token.  Lines as the
   serve-admit benchmark writes them, 8 weights each.  Measured: 90
   words per [shadow_costs] line and 68 per [delta] line (ceilings 180
   and 136, 2x headroom), 7 of them per number read; through
   [Json.of_string] such lines took 916 and 746.  Release profile, as
   above. *)
let test_read_request_allocation () =
  List.iter
    (fun (label, ceiling, line) ->
      (match Protocol.read_request line with
      | Ok _ -> ()
      | Error (_, message) -> Alcotest.failf "%s: %s" label message);
      let before = Gc.minor_words () in
      ignore (Sys.opaque_identity (Protocol.read_request line));
      let words = Gc.minor_words () -. before in
      if words > ceiling then
        Alcotest.failf
          "reading a warm %s line allocated %.0f minor words (ceiling %.0f); \
           the gate assumes the release profile"
          label words ceiling)
    [
      ( "shadow_costs",
        180.,
        {|{"id":3238,"op":"shadow_costs","tree":"h0","weights":[0.5,0.25,0.75,0.625,0.875,0.375,1.0,0.5]}|}
      );
      ( "delta",
        136.,
        {|{"id":3239,"op":"delta","tree":"h0","changes":[{"class":3,"alpha":0.00089931488037109375}]}|}
      );
    ]

(* The Json.t rendering of a response, field for field in the order
   the daemon has always written them: the oracle the typed field
   writer must match byte for byte. *)
let oracle_measures (m : Measures.t) =
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

let oracle_solved (s : Protocol.solved) =
  [
    ("tree", Json.String s.Protocol.tree);
    ("from_hot", Json.Bool s.Protocol.from_hot);
    ("tree_combines", Json.Int s.Protocol.tree_combines);
    ("banded_combines", Json.Int s.Protocol.banded_combines);
    ("log_g", Json.Float s.Protocol.log_g);
    ("measures", oracle_measures s.Protocol.measures);
  ]

let oracle_ok ~id ~op fields =
  Json.Assoc
    ([ ("id", id); ("ok", Json.Bool true); ("op", Json.String op) ] @ fields)

let floats a = Json.List (Array.to_list (Array.map (fun f -> Json.Float f) a))

let oracle_response = function
  | Protocol.Solve_ok { id; solved } ->
      oracle_ok ~id ~op:"solve" (oracle_solved solved)
  | Protocol.Delta_ok { id; solved; changed_classes } ->
      oracle_ok ~id ~op:"delta"
        (oracle_solved solved
        @ [
            ( "changed_classes",
              Json.List (List.map (fun i -> Json.Int i) changed_classes) );
          ])
  | Protocol.Blocking_ok { id; tree; classes } ->
      oracle_ok ~id ~op:"blocking"
        [
          ("tree", Json.String tree);
          ( "classes",
            Json.List
              (Array.to_list
                 (Array.map
                    (fun (c : Measures.per_class) ->
                      Json.Assoc
                        [
                          ("name", Json.String c.Measures.name);
                          ("blocking", Json.Float c.Measures.blocking);
                          ("non_blocking", Json.Float c.Measures.non_blocking);
                        ])
                    classes)) );
        ]
  | Protocol.Shadow_costs_ok { id; tree; revenue; shadow_costs } ->
      oracle_ok ~id ~op:"shadow_costs"
        [
          ("tree", Json.String tree);
          ("revenue", Json.Float revenue);
          ("shadow_costs", floats shadow_costs);
        ]
  | Protocol.Admit_ok
      { id; tree; class_index; admit; weight; shadow_cost; net_gain } ->
      oracle_ok ~id ~op:"admit"
        [
          ("tree", Json.String tree);
          ("class", Json.Int class_index);
          ("admit", Json.Bool admit);
          ("weight", Json.Float weight);
          ("shadow_cost", Json.Float shadow_cost);
          ("net_gain", Json.Float net_gain);
        ]
  | Protocol.Stats_ok { id; fields } -> oracle_ok ~id ~op:"stats" fields
  | Protocol.Shutdown_ok { id } -> oracle_ok ~id ~op:"shutdown" []
  | Protocol.Failed { id; message } ->
      Json.Assoc
        [ ("id", id); ("ok", Json.Bool false); ("error", Json.String message) ]

(* Random typed responses: edge and non-finite floats, strings with
   quotes, backslashes, control and non-ASCII bytes, ids of every JSON
   kind. *)
let response_gen =
  let open QCheck2.Gen in
  let float =
    oneof
      [
        oneofl
          [
            0.; -0.; 1.; -1.; 0.5; 1e-6; 1e16; 1e-7; 1e17; 1e20; 1e-300;
            Float.max_float; Float.min_float; Int64.float_of_bits 1L;
            Float.infinity; Float.neg_infinity; Float.nan;
          ];
        map2 (fun e negative -> if negative then -.(10. ** e) else 10. ** e)
          (float_range (-12.) 20.) bool;
        float_range 0. 1.;
        map Int64.float_of_bits int64;
      ]
  in
  let text =
    string_size (int_range 0 10)
      ~gen:
        (oneof
           [
             char_range 'a' 'z';
             oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\001'; '\031'; '\127'; '\233' ];
           ])
  in
  let int = oneof [ int_range (-5) 100; oneofl [ max_int; min_int ] ] in
  let rec json depth =
    let leaves =
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) float;
        map (fun s -> Json.String s) text;
      ]
    in
    if depth = 0 then oneof leaves
    else
      oneof
        (leaves
        @ [
            map (fun l -> Json.List l) (list_size (int_range 0 3) (json (depth - 1)));
            map
              (fun l -> Json.Assoc l)
              (list_size (int_range 0 3) (pair text (json (depth - 1))));
          ])
  in
  let id = json 2 in
  let per_class =
    let* name = text in
    let* bandwidth = int_range 1 8 in
    let* offered_load = float in
    let* non_blocking = float in
    let* blocking = float in
    let* concurrency = float in
    let* throughput = float in
    return
      {
        Measures.name;
        bandwidth;
        offered_load;
        non_blocking;
        blocking;
        concurrency;
        throughput;
      }
  in
  let classes = array_size (int_range 0 4) per_class in
  let solved =
    let* tree = text in
    let* from_hot = bool in
    let* tree_combines = int_range 0 20 in
    let* banded_combines = int_range 0 20 in
    let* log_g = float in
    let* per_class = classes in
    let* busy_ports = float in
    let* input_utilization = float in
    let* output_utilization = float in
    return
      {
        Protocol.tree;
        from_hot;
        tree_combines;
        banded_combines;
        log_g;
        measures =
          { Measures.per_class; busy_ports; input_utilization; output_utilization };
      }
  in
  oneof
    [
      map2 (fun id solved -> Protocol.Solve_ok { id; solved }) id solved;
      map3
        (fun id solved changed_classes ->
          Protocol.Delta_ok { id; solved; changed_classes })
        id solved
        (list_size (int_range 0 4) (int_range 0 7));
      map3
        (fun id tree classes -> Protocol.Blocking_ok { id; tree; classes })
        id text classes;
      (let* id = id and* tree = text and* revenue = float in
       let* shadow_costs = array_size (int_range 0 5) float in
       return (Protocol.Shadow_costs_ok { id; tree; revenue; shadow_costs }));
      (let* id = id and* tree = text and* class_index = int in
       let* admit = bool and* weight = float and* shadow_cost = float in
       let* net_gain = float in
       return
         (Protocol.Admit_ok
            { id; tree; class_index; admit; weight; shadow_cost; net_gain }));
      map2
        (fun id fields -> Protocol.Stats_ok { id; fields })
        id
        (list_size (int_range 0 3) (pair text (json 2)));
      map (fun id -> Protocol.Shutdown_ok { id }) id;
      map2 (fun id message -> Protocol.error_response ~id message) id text;
    ]

let typed_writer_matches_oracle =
  QCheck2.Test.make ~name:"typed writer equals the Json.t oracle" ~count:2000
    ~print:(fun r -> Json.to_string (oracle_response r))
    response_gen
    (fun response ->
      String.equal
        (Protocol.response_to_line response)
        (Json.to_string (oracle_response response))
      &&
      (* The document perfbench fingerprints sweeps with keeps the same
         layout. *)
      match response with
      | Protocol.Solve_ok { solved; _ } | Protocol.Delta_ok { solved; _ } ->
          let m = solved.Protocol.measures in
          String.equal
            (Json.to_string (Protocol.measures_to_json m))
            (Json.to_string (oracle_measures m))
      | _ -> true)

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

(* The registry's eviction count, as [stats] reports it. *)
let evictions registry =
  match Json.member "evictions" (Registry.stats_json registry) with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.fail "stats_json must report evictions"

let test_registry_eviction_recycles () =
  let registry = Registry.create ~capacity:2 () in
  let model = small_model () in
  let first, _ = Registry.install registry ~name:"a" model in
  let solved = first.Registry.solved in
  (* Same-shape installs share a context (and so this domain's arena):
     each churn install below displaces one tree, whose lattices go back
     to the free list as it is evicted, so after a short warm-up the
     churn runs in recycled storage. *)
  let arena =
    Convolution.arena
      (Convolution.Factor_tree.context (Convolution.tree solved))
  in
  (* Snapshot before the churn: "a" itself will be evicted and its
     lattices recycled, so the entry must not be read afterwards. *)
  let reference_log_g = Convolution.log_normalization solved in
  ignore (Registry.install registry ~name:"b" model);
  check_int "nothing evicted below capacity" 0 (evictions registry);
  let created_after_warmup = ref 0 in
  let warm = 2 in
  for i = 0 to 9 do
    ignore (Registry.install registry ~name:(Printf.sprintf "n%d" i) model);
    if i = warm then created_after_warmup := Convolution.Arena.created arena
  done;
  check_int "every churn install displaced one tree" 10
    (evictions registry);
  check_int "capacity held" 2 (Registry.size registry);
  check_int "arena creations plateau under churn" !created_after_warmup
    (Convolution.Arena.created arena);
  check_bool "recycled lattices are reused" true
    (Convolution.Arena.reused arena > 0);
  (* Recycling is bit-invisible: a solve drawing on the recycled free
     list matches the solve that ran before any eviction. *)
  let last, _ = Registry.install registry ~name:"last" model in
  check_bool "post-churn solve bit-identical" true
    (Int64.equal
       (Int64.bits_of_float
          (Convolution.log_normalization last.Registry.solved))
       (Int64.bits_of_float reference_log_g))

(* ---------- batcher ---------- *)

let execute ?(registry = Registry.create ()) requests =
  let telemetry = Telemetry.create () in
  (Batcher.execute ~registry ~telemetry requests, telemetry)

let request id query = { Protocol.id = Json.Int id; query }

let solve_request ?(tree = "t") id model =
  request id (Protocol.Solve { tree; model })

(* What a client reads: the response's wire line, parsed. *)
let response_json response =
  let line = Protocol.response_to_line response in
  match Json.of_string line with
  | Ok json -> json
  | Error m -> Alcotest.failf "response is not JSON (%s): %s" m line

let ok response =
  match Json.member "ok" (response_json response) with
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
           (Protocol.response_to_line batched.Batcher.responses.(i))
           (Protocol.response_to_line single.Batcher.responses.(0))))
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
                match Json.member field (response_json response) with
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
  let delta_response = response_json outcome.Batcher.responses.(1) in
  check_bool "delta ok" true
    (Json.member "ok" delta_response = Some (Json.Bool true));
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
  let error = response_json outcome.Batcher.responses.(0) in
  check_bool "error id echoed" true (Json.member "id" error = Some (Json.Int 0));
  check_bool "error message present" true
    (match Json.member "error" error with
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
  check_bool "both ok" true
    (ok outcome.Batcher.responses.(1) && ok outcome.Batcher.responses.(2));
  let shadow_response = response_json outcome.Batcher.responses.(1) in
  let admit_response = response_json outcome.Batcher.responses.(2) in
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
    (Json.member "admit" admit_response = Some (Json.Bool (weight >= shadow)));
  (* A weight count that does not match the model is refused with the
     message [shadow_costs] gives, and the tree stays installed. *)
  let short = [| 1.0 |] in
  let outcome, _ =
    execute
      [|
        solve_request 0 model;
        request 1 (Protocol.Shadow_costs { tree = "t"; weights = short });
        request 2
          (Protocol.Admit { tree = "t"; class_index = 0; weights = short });
        request 3 (Protocol.Admit { tree = "t"; class_index = 0; weights });
      |]
  in
  List.iter
    (fun i ->
      Alcotest.(check string)
        (Printf.sprintf "response %d refuses the weight count" i)
        ({|{"id":|} ^ string_of_int i
        ^ {|,"ok":false,"error":"Revenue.shadow_costs: weight count mismatch"}|}
        )
        (Json.to_string (response_json outcome.Batcher.responses.(i))))
    [ 1; 2 ];
  check_bool "the tree still answers" true (ok outcome.Batcher.responses.(3))

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
  check_bool "stats ok" true (ok outcome.Batcher.responses.(1));
  let stats = response_json outcome.Batcher.responses.(1) in
  (match Json.member "telemetry" stats with
  | Some summary ->
      check_bool "solve counted before stats" true
        (Json.member "solves" summary = Some (Json.Int 1));
      check_bool "one request before stats" true
        (Json.member "requests" summary = Some (Json.Int 1));
      check_bool "no record list in daemon stats" true
        (Json.member "records" summary = None)
  | None -> Alcotest.fail "stats missing telemetry");
  (match Json.member "registry" stats with
  | Some registry_stats ->
      check_bool "one resident tree" true
        (Json.member "entries" registry_stats = Some (Json.Int 1))
  | None -> Alcotest.fail "stats missing registry");
  (* Every request is counted, stats and shutdown included; only the
     solve that built a tree counts as a solve. *)
  check_int "three requests" 3 (Telemetry.requests telemetry);
  check_int "one solve" 1 (Telemetry.count telemetry)

let test_stats_counts_requests_and_solves_apart () =
  (* The mixed stream's 7 requests hold one solve and two deltas; its
     reads do no solve work, nor do a read of an absent tree and a
     heavy solve whose root the rescaling flushes. *)
  let model = small_model () in
  let requests =
    Array.append (mixed_stream model)
      [|
        request 7 (Protocol.Blocking { tree = "absent" });
        solve_request ~tree:"heavy" 8 (Helpers.heavy_model ());
      |]
  in
  let outcome, telemetry = execute requests in
  check_bool "absent read fails" false (ok outcome.Batcher.responses.(7));
  check_bool "heavy solve fails" false (ok outcome.Batcher.responses.(8));
  check_int "every request counted" 9 (Telemetry.requests telemetry);
  check_int "solve and deltas counted as solves" 3 (Telemetry.count telemetry);
  let json = Telemetry.to_json telemetry in
  check_bool "requests field" true
    (Json.member "requests" json = Some (Json.Int 9));
  check_bool "solves field" true (Json.member "solves" json = Some (Json.Int 3))

let test_multi_tree_batch_isolated () =
  (* Two trees in one batch: each response matches the corresponding
     single-tree run. *)
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
       (Protocol.response_to_line outcome.Batcher.responses.(0))
       (Protocol.response_to_line solo_a.Batcher.responses.(0)));
  check_bool "tree a read unaffected by batching" true
    (String.equal
       (Protocol.response_to_line outcome.Batcher.responses.(2))
       (Protocol.response_to_line solo_a.Batcher.responses.(1)));
  check_bool "tree b solve unaffected by batching" true
    (String.equal
       (Protocol.response_to_line outcome.Batcher.responses.(1))
       (Protocol.response_to_line solo_b.Batcher.responses.(0)));
  check_bool "tree b read unaffected by batching" true
    (String.equal
       (Protocol.response_to_line outcome.Batcher.responses.(3))
       (Protocol.response_to_line solo_b.Batcher.responses.(1)))

(* ---------- a flushed solve ---------- *)

let heavy = heavy_model ()
let heavy_light = heavy_model ~scale:0.1 ()

(* A light solve on [registry] after the failures must answer exactly
   as on a registry that never saw them: same bytes, [from_hot] false,
   arenas uncorrupted by any half-recycled tree. *)
let check_recovers label registry =
  let solve = solve_request 99 heavy_light in
  let after, _ = execute ~registry [| solve |] in
  let fresh, _ = execute [| solve |] in
  Alcotest.(check string)
    (label ^ ": light solve as on a new registry")
    (Protocol.response_to_line fresh.Batcher.responses.(0))
    (Protocol.response_to_line after.Batcher.responses.(0))

let check_oks label expected (outcome : Batcher.outcome) =
  check_int (label ^ ": one response per request") (List.length expected)
    (Array.length outcome.Batcher.responses);
  List.iteri
    (fun i expect ->
      check_bool (Printf.sprintf "%s: response %d ok=%b" label i expect) expect
        (ok outcome.Batcher.responses.(i)))
    expected

let test_flushed_solve_in_one_batch () =
  (* Case (a): the failed solve leaves no tree behind, so the blocking
     behind it is an unknown tree and stats still answers. *)
  let registry = Registry.create () in
  let outcome, _ =
    execute ~registry
      [|
        solve_request 0 heavy;
        request 1 (Protocol.Blocking { tree = "t" });
        request 2 Protocol.Stats;
      |]
  in
  check_oks "solve, blocking, stats" [ false; false; true ] outcome;
  check_int "nothing resident" 0 (Registry.size registry);
  check_recovers "one batch" registry

let test_flushed_resolve_drops_the_tree () =
  (* Case (b): the warm re-solve recycles the light tree's lattices
     before it fails, so the name must go; a read in the next batch
     then answers "unknown tree".  Both ways of re-solving: a [solve]
     of the heavy model and a [delta] to it. *)
  let to_heavy =
    List.init 8 (fun i ->
        let c = (Model.classes heavy).(i) in
        {
          Protocol.class_index = i;
          alpha = Some c.Traffic.alpha;
          beta = Some c.Traffic.beta;
        })
  in
  List.iter
    (fun (label, resolve) ->
      let registry = Registry.create () in
      let first, _ = execute ~registry [| solve_request 0 heavy_light |] in
      check_oks (label ^ " light solve") [ true ] first;
      let second, _ = execute ~registry [| request 1 resolve |] in
      check_oks (label ^ " heavy re-solve") [ false ] second;
      let third, _ =
        execute ~registry
          [|
            request 2 (Protocol.Blocking { tree = "t" });
            request 3
              (Protocol.Shadow_costs { tree = "t"; weights = Array.make 8 1. });
          |]
      in
      check_oks (label ^ " reads after") [ false; false ] third;
      check_int (label ^ ": nothing resident") 0 (Registry.size registry);
      check_recovers label registry)
    [
      ("solve", Protocol.Solve { tree = "t"; model = heavy });
      ("delta", Protocol.Delta { tree = "t"; changes = to_heavy });
    ]

(* Random windows of every tree op over four names, including unknown
   trees, classes out of range, mismatched weights, invalid rates, a
   registry of capacity 1 to 4 and the flushed heavy model, run back to
   back on one registry: execute never raises, and every request gets
   exactly one response carrying its id. *)
let window_gen =
  let open QCheck2.Gen in
  let tree = oneofl [ "a"; "b"; "c"; "d" ] in
  let model = oneofl [ small_model (); heavy_light; heavy ] in
  let weights =
    let* n = int_range 0 3 in
    array_repeat n (float_range 0. 2.)
  in
  let change =
    let* class_index = int_range (-1) 8 in
    let* alpha = opt (oneofl [ 0.01; 0.3; 2.0; 50.0; -1.0 ]) in
    let* beta = opt (oneofl [ 0.0; 0.001; 0.1; -1.0 ]) in
    return { Protocol.class_index; alpha; beta }
  in
  let query =
    oneof
      [
        map2 (fun tree model -> Protocol.Solve { tree; model }) tree model;
        map2
          (fun tree changes -> Protocol.Delta { tree; changes })
          tree (list_size (int_range 0 3) change);
        map (fun tree -> Protocol.Blocking { tree }) tree;
        map2
          (fun tree weights -> Protocol.Shadow_costs { tree; weights })
          tree weights;
        map3
          (fun tree class_index weights ->
            Protocol.Admit { tree; class_index; weights })
          tree (int_range (-1) 3) weights;
        return Protocol.Stats;
      ]
  in
  let* capacity = opt (int_range 1 4) in
  let* windows =
    list_size (int_range 1 4)
      (map
         (fun queries -> Array.of_list (List.mapi request queries))
         (list_size (int_range 1 8) query))
  in
  return (capacity, windows)

let execute_never_raises =
  QCheck2.Test.make ~name:"execute never raises" ~count:40 window_gen
    (fun (capacity, windows) ->
      let registry = Registry.create ?capacity () in
      let telemetry = Telemetry.create () in
      List.for_all
        (fun requests ->
          let outcome = Batcher.execute ~registry ~telemetry requests in
          Array.length outcome.Batcher.responses = Array.length requests
          && Array.for_all2
               (fun (req : Protocol.request) response ->
                 let json = response_json response in
                 Json.member "id" json = Some req.Protocol.id
                 && Option.is_some (Json.member "ok" json))
               requests outcome.Batcher.responses)
        windows)

(* The same windows served once as batches and once one request at a
   time, each on its own registry and telemetry: every response but
   [stats] is byte-identical, and so are the registries' entries, hits,
   misses and evictions at the end.  A [stats] response carries wall
   times, so only its registry block and its request and solve counts
   are compared: it counts the requests before it, mid-batch too.
   Windows run unbounded or at a capacity; one at or below the four
   names makes windows evict. *)
let batched_equals_one_at_a_time_under_capacity =
  QCheck2.Test.make ~name:"batched equals one-at-a-time under capacity"
    ~count:40 window_gen (fun (capacity, windows) ->
      let batched = Registry.create ?capacity ()
      and single = Registry.create ?capacity () in
      let batched_telemetry = Telemetry.create ()
      and single_telemetry = Telemetry.create () in
      let lines registry telemetry requests =
        let outcome = Batcher.execute ~registry ~telemetry requests in
        Array.map Protocol.response_to_line outcome.Batcher.responses
      in
      (* The untimed part of a [stats] line. *)
      let counted line =
        let json =
          match Json.of_string line with
          | Ok json -> json
          | Error m -> QCheck2.Test.fail_reportf "not JSON (%s): %s" m line
        in
        let member path =
          List.fold_left
            (fun json field -> Option.bind json (Json.member field))
            (Some json) path
        in
        List.map
          (fun path -> Option.map Json.to_string (member path))
          [
            [ "registry" ];
            [ "telemetry"; "requests" ];
            [ "telemetry"; "solves" ];
          ]
      in
      List.iter
        (fun requests ->
          let together = lines batched batched_telemetry requests
          and apart =
            Array.map
              (fun r -> (lines single single_telemetry [| r |]).(0))
              requests
          in
          Array.iteri
            (fun i (req : Protocol.request) ->
              let same =
                match req.Protocol.query with
                | Protocol.Stats -> counted together.(i) = counted apart.(i)
                | _ -> String.equal together.(i) apart.(i)
              in
              if not same then
                QCheck2.Test.fail_reportf
                  "response %d differs:@.batched: %s@.one at a time: %s" i
                  together.(i) apart.(i))
            requests)
        windows;
      let stats registry = Json.to_string (Registry.stats_json registry) in
      if not (String.equal (stats batched) (stats single)) then
        QCheck2.Test.fail_reportf
          "registries differ:@.batched: %s@.one at a time: %s" (stats batched)
          (stats single);
      true)

(* A registry of capacity 2 holding the trees [setup] installs, one
   request per batch. *)
let registry_after setup =
  let registry = Registry.create ~capacity:2 () in
  Array.iter (fun r -> ignore (execute ~registry [| r |])) setup;
  registry

(* Each batch's responses on the wire, batch after batch. *)
let serve_batches registry batches =
  Array.concat
    (List.map
       (fun batch ->
         let outcome, _ = execute ~registry batch in
         Array.map Protocol.response_to_line outcome.Batcher.responses)
       batches)

let check_as_one_at_a_time label ~setup batches =
  let batched = serve_batches (registry_after setup) batches in
  let single =
    serve_batches (registry_after setup)
      (List.concat_map
         (fun batch -> Array.to_list (Array.map (fun r -> [| r |]) batch))
         batches)
  in
  Alcotest.(check (array string))
    (label ^ ": as one at a time")
    single batched

let test_eviction_in_arrival_order () =
  (* [z]'s install evicts [y], the least recently used tree, before the
     read queued behind it: that read must answer "unknown tree" as it
     does one request at a time, whatever order the names sort in. *)
  let model = small_model () in
  let setup =
    [| solve_request ~tree:"y" 0 model; solve_request ~tree:"x" 1 model |]
  in
  let batch =
    [|
      solve_request ~tree:"z" 2 model;
      request 3 (Protocol.Blocking { tree = "y" });
    |]
  in
  let registry = registry_after setup in
  let outcome, _ = execute ~registry batch in
  check_oks "solve z, blocking y" [ true; false ] outcome;
  check_int "z displaced y" 1 (evictions registry);
  check_as_one_at_a_time "solve z, blocking y" ~setup [ batch ]

let test_bounded_batch_keeps_recency () =
  (* A read-only batch over two trees of a bounded registry.  One at a
     time, [b] is read last, so the next install evicts [a]; the batched
     registry must agree.  Serving the batch tree group by tree group
     would read [a] last in the second order, whose [b] group comes
     first, and leave [a] the most recent. *)
  let model = small_model () in
  let setup =
    [| solve_request ~tree:"a" 0 model; solve_request ~tree:"b" 1 model |]
  in
  let install_c = [| solve_request ~tree:"c" 20 model |]
  and read_a = [| request 21 (Protocol.Blocking { tree = "a" }) |] in
  List.iter
    (fun (label, reads) ->
      let batch =
        Array.of_list
          (List.mapi
             (fun i tree -> request (10 + i) (Protocol.Blocking { tree }))
             reads)
      in
      let registry = registry_after setup in
      let outcome, _ = execute ~registry batch in
      check_oks label (List.map (fun _ -> true) reads) outcome;
      ignore (execute ~registry install_c);
      let read, _ = execute ~registry read_a in
      check_oks (label ^ ": a was the LRU tree") [ false ] read;
      check_as_one_at_a_time label ~setup [ batch; install_c; read_a ])
    [
      ("a x4, b", [ "a"; "a"; "a"; "a"; "b" ]);
      ("b, a x4, b", [ "b"; "a"; "a"; "a"; "a"; "b" ]);
    ]

(* Reads answer from the hot tree's solved diagonal and allocate only
   their response: no solve, no lattice.  A warm [blocking], a warm
   [shadow_costs] and a warm [admit] on a 32-port, 8-class tree, one
   request per batch on one domain, where [Gc.minor_words] sees all of
   it.  Measured: 67 words per [blocking] (ceiling 428), 146 per
   [shadow_costs] (ceiling 292): the shadow-cost array, one copy of the
   memoized concurrencies per depth, the typed response and the batch's
   response array; and 110 per [admit] (ceiling 220), which copies
   depth 0 and its class's depth.  The gate assumes the release profile
   that dune-workspace selects. *)
let test_read_allocation () =
  let registry = Registry.create () in
  let telemetry = Telemetry.create () in
  let run requests =
    ignore (Batcher.execute ~registry ~telemetry requests)
  in
  run [| solve_request 0 (multi_class_model ~classes:8 ~size:32 0.05) |];
  let weights = Array.init 8 (fun r -> 1.0 /. float_of_int (r + 1)) in
  List.iter
    (fun (label, ceiling, query) ->
      let batch = [| request 1 query |] in
      run batch;
      run batch;
      let before = Gc.minor_words () in
      run batch;
      let words = Gc.minor_words () -. before in
      if words > ceiling then
        Alcotest.failf
          "warm %s allocated %.0f minor words (ceiling %.0f); the gate \
           assumes the release profile"
          label words ceiling)
    [
      ("blocking", 428., Protocol.Blocking { tree = "t" });
      ("shadow_costs", 292., Protocol.Shadow_costs { tree = "t"; weights });
      ("admit", 220., Protocol.Admit { tree = "t"; class_index = 3; weights });
    ]

(* Writing a response into a reused buffer allocates only the digit
   scratch of its floats and ints, never a tree or the text itself.
   The [delta] and [blocking] responses of the same 32-port, 8-class
   tree.  Measured: 265 words per [delta] (44 floats; ceiling 530) and
   126 per [blocking] (16 floats; ceiling 252), 2x headroom.  Release
   profile, as above. *)
let test_write_allocation () =
  let registry = Registry.create () in
  let telemetry = Telemetry.create () in
  let answer query =
    let outcome =
      Batcher.execute ~registry ~telemetry [| request 1 query |]
    in
    outcome.Batcher.responses.(0)
  in
  ignore
    (answer
       (Protocol.Solve
          { tree = "t"; model = multi_class_model ~classes:8 ~size:32 0.05 }));
  let buffer = Buffer.create 16 in
  List.iter
    (fun (label, ceiling, query) ->
      let response = answer query in
      check_bool (label ^ " ok") true (ok response);
      let write () =
        Buffer.clear buffer;
        Protocol.write_response buffer response
      in
      write ();
      let before = Gc.minor_words () in
      write ();
      let words = Gc.minor_words () -. before in
      if words > ceiling then
        Alcotest.failf
          "writing a warm %s allocated %.0f minor words (ceiling %.0f); the \
           gate assumes the release profile"
          label words ceiling)
    [
      ( "delta",
        530.,
        Protocol.Delta
          {
            tree = "t";
            changes =
              [ { Protocol.class_index = 0; alpha = Some 0.06; beta = None } ];
          } );
      ("blocking", 252., Protocol.Blocking { tree = "t" });
    ]

(* ---------- the daemon loop ---------- *)

(* Run [Server.run] in-process over pipes, write [lines], read exactly
   one response line per request, and return the raw response bytes.
   The stream ends with a shutdown so the server exits and joins. *)
let run_server_over_pipes lines =
  let in_r, in_w = Unix.pipe ~cloexec:false () in
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let server =
    Domain.spawn (fun () -> Server.run ~input:in_r ~output:out_w ())
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

let test_server_matches_one_at_a_time () =
  (* The mixed stream is deterministic (no stats: telemetry timings
     differ run to run).  However the loop groups it into batches, the
     bytes it writes must be those of serving each request alone. *)
  let requests =
    Array.append
      (mixed_stream (small_model ()))
      [| request 9 Protocol.Shutdown |]
  in
  let served =
    run_server_over_pipes (Array.to_list (Array.map serialize requests))
  in
  let registry = Registry.create () and telemetry = Telemetry.create () in
  let alone =
    String.concat ""
      (Array.to_list
         (Array.map
            (fun req ->
              let outcome =
                Batcher.execute ~registry ~telemetry [| req |]
              in
              Protocol.response_to_line outcome.Batcher.responses.(0) ^ "\n")
            requests))
  in
  check_int "one response per request" (Array.length requests)
    (String.fold_left
       (fun acc c -> if c = '\n' then acc + 1 else acc)
       0 served);
  Alcotest.(check string) "served bytes equal one-at-a-time execute" alone
    served

(* ---------- line framing ---------- *)

let show_lines lines =
  String.concat "; "
    (List.map
       (function
         | Server.Lines.Line l -> Printf.sprintf "Line %S" l
         | Server.Lines.Overlong -> "Overlong")
       lines)

let check_lines label expected actual =
  Alcotest.(check string) label (show_lines expected) (show_lines actual)

(* A client that never sends a newline must not grow the daemon: the
   partial line stays within [max_bytes] whatever arrives, and the
   overlong line costs exactly one error at its position. *)
let test_lines_bounded () =
  let max = Server.Lines.max_bytes in
  let t = Server.Lines.create () in
  let chunk = String.make 65536 'x' in
  let pushed = ref (Server.Lines.push t "{\"id\":1}\n") in
  for _ = 1 to (3 * max / String.length chunk) + 1 do
    pushed := !pushed @ Server.Lines.push t chunk;
    check_bool "carry within the limit" true (Server.Lines.pending t <= max)
  done;
  pushed := !pushed @ Server.Lines.push t "xx\n{\"id\":2}\n";
  check_lines "error at its position, then serving resumes"
    Server.Lines.[ Line "{\"id\":1}"; Overlong; Line "{\"id\":2}" ]
    !pushed;
  check_int "nothing pending" 0 (Server.Lines.pending t);
  (* A complete line one byte past the limit is refused too, whether it
     arrives whole or as a just-fitting carry plus its last byte; a line
     exactly at the limit is served. *)
  let at_limit = String.make max 'y' in
  check_lines "at the limit, whole" Server.Lines.[ Line at_limit ]
    (Server.Lines.push t (at_limit ^ "\n"));
  check_lines "past the limit, whole" Server.Lines.[ Overlong ]
    (Server.Lines.push t (at_limit ^ "y\n"));
  check_lines "just fitting carry" [] (Server.Lines.push t at_limit);
  check_lines "past the limit, split" Server.Lines.[ Overlong ]
    (Server.Lines.push t "y\n");
  check_int "nothing pending after the split line" 0 (Server.Lines.pending t);
  check_bool "EOF while discarding answers nothing more" true
    (Server.Lines.push t (at_limit ^ "yz") = [ Server.Lines.Overlong ]
    && Server.Lines.finish t = None)

let test_overlong_line_between_requests () =
  (* Responses follow arrival order on the connection: the first
     request, one [id: null] error for the overlong line, the second
     request — and the connection keeps serving through to shutdown. *)
  let lines =
    [
      serialize (request 1 Protocol.Stats);
      String.make ((3 * Server.Lines.max_bytes) + 5) 'x';
      serialize (request 2 Protocol.Stats);
      serialize (request 3 Protocol.Shutdown);
    ]
  in
  let output = run_server_over_pipes lines in
  let responses =
    List.filter_map
      (fun line ->
        if String.equal line "" then None
        else
          match Json.of_string line with
          | Ok json -> Some json
          | Error m -> Alcotest.failf "response is not JSON (%s): %s" m line)
      (String.split_on_char '\n' output)
  in
  check_int "one response per line" 4 (List.length responses);
  List.iteri
    (fun i (id, ok_expected) ->
      let response = List.nth responses i in
      check_bool
        (Printf.sprintf "response %d id" i)
        true
        (Json.member "id" response = Some id);
      check_bool
        (Printf.sprintf "response %d ok=%b" i ok_expected)
        true
        (Json.member "ok" response = Some (Json.Bool ok_expected)))
    [
      (Json.Int 1, true);
      (Json.Null, false);
      (Json.Int 2, true);
      (Json.Int 3, true);
    ]

let test_server_config_validation () =
  let config batch_limit capacity =
    { Server.default_config with batch_limit; capacity }
  in
  let input = Unix.stdin and output = Unix.stdout in
  check_invalid_contains "batch_limit names its value"
    ~substring:"batch_limit=0" (fun () ->
      Server.run ~config:(config 0 None) ~input ~output ());
  check_invalid_contains "capacity names its value" ~substring:"capacity=-2"
    (fun () -> Server.run ~config:(config 16 (Some (-2))) ~input ~output ())

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
  (* [--domains] is still accepted, and ignored. *)
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
            | _ -> false);
          if i = 4 then
            check_bool "stats carries no domains field" true
              (Json.member "domains" response = None))
    lines;
  (* A malformed CROSSBAR_DOMAINS stops the daemon before it answers. *)
  check_bool "malformed CROSSBAR_DOMAINS refused at startup" true
    (Sys.command
       (Printf.sprintf "CROSSBAR_DOMAINS=abc %s < %s > %s 2>/dev/null"
          serve_exe input output)
    <> 0);
  check_int "nothing answered" 0 (List.length (read_lines output));
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

let test_end_to_end_flushed_solve () =
  (* Both flushed-solve sequences through the shipped daemon: every
     request answered, and a clean exit on shutdown.  [--batch-limit 1]
     puts each request of case (b) in its own batch. *)
  let input = "serve_heavy_input.txt" and output = "serve_heavy_output.txt" in
  let blocking id = request id (Protocol.Blocking { tree = "t" }) in
  List.iter
    (fun (label, flags, requests) ->
      let oc = open_out input in
      Array.iter
        (fun req -> output_string oc (serialize req ^ "\n"))
        requests;
      close_out oc;
      check_int (label ^ ": daemon exits cleanly") 0
        (Sys.command
           (Printf.sprintf "%s %s < %s > %s 2>/dev/null" serve_exe flags
              input output));
      check_int
        (label ^ ": one response per request")
        (Array.length requests)
        (List.length (read_lines output)))
    [
      ( "one batch",
        "",
        [|
          solve_request 1 heavy;
          blocking 2;
          request 3 Protocol.Stats;
          request 4 Protocol.Shutdown;
        |] );
      ( "re-solve",
        "--batch-limit 1",
        [|
          solve_request 1 heavy_light;
          solve_request 2 heavy;
          blocking 3;
          solve_request 4 heavy_light;
          blocking 5;
          request 6 Protocol.Shutdown;
        |] );
    ];
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
          case "reader fixed lines" test_reader_fixed_lines;
          qcheck reader_matches_oracle;
          case "reading a request allocates within its ceilings"
            test_read_request_allocation;
          qcheck typed_writer_matches_oracle;
        ] );
      ( "registry",
        [
          case "install and delta path" test_registry_install_and_delta_path;
          case "LRU eviction" test_registry_lru_eviction;
          case "eviction recycles into the arenas"
            test_registry_eviction_recycles;
        ] );
      ( "batcher",
        [
          case "batched equals one-at-a-time" test_batched_equals_one_at_a_time;
          case "delta matches fresh solve" test_delta_matches_fresh_solve;
          case "unknown tree and bad change" test_unknown_tree_and_bad_change;
          case "admit semantics" test_admit_semantics;
          case "stats and shutdown" test_stats_and_shutdown;
          case "stats counts requests and solves apart"
            test_stats_counts_requests_and_solves_apart;
          case "multi-tree batch isolated" test_multi_tree_batch_isolated;
          case "flushed solve in one batch" test_flushed_solve_in_one_batch;
          case "flushed re-solve drops the tree"
            test_flushed_resolve_drops_the_tree;
          qcheck execute_never_raises;
          qcheck batched_equals_one_at_a_time_under_capacity;
          case "eviction in arrival order" test_eviction_in_arrival_order;
          case "bounded batch keeps LRU recency"
            test_bounded_batch_keeps_recency;
          case "warm reads allocate within their ceilings"
            test_read_allocation;
          case "response writer allocates within its ceilings"
            test_write_allocation;
        ] );
      ( "daemon",
        [
          case "server equals one-at-a-time execute"
            test_server_matches_one_at_a_time;
          case "config validation names offending values"
            test_server_config_validation;
          case "end to end over stdin" test_end_to_end_stdin;
          case "EOF without shutdown" test_end_to_end_eof_without_shutdown;
          case "flushed solve end to end" test_end_to_end_flushed_solve;
          case "line buffer bounded" test_lines_bounded;
          case "overlong line between requests"
            test_overlong_line_between_requests;
        ] );
    ]
