(* Drives a fixed conversation through [Server.run] over a pair of pipes
   and prints it, one request line ("> ") and its response line ("< ")
   at a time.  It takes no argument.  `dune runtest` diffs the output
   against serve_transcript.expected, so any change to the bytes the
   daemon puts on the wire shows up there.

   The conversation holds every op but [stats] (its telemetry carries
   wall times), every error path, ids of every JSON kind, a class name
   with a quote and a control character, and floats on both sides of
   the float writer's fast range: an alpha near 1e-9, admit weights of
   1e20, whole-number weights and a negative net gain.  Weights of 1e400
   (which parses to infinity), 0 and -3 are refused. *)

module Server = Crossbar_serve.Server

let model inputs outputs classes =
  Printf.sprintf {|{"inputs":%d,"outputs":%d,"classes":[%s]}|} inputs outputs
    (String.concat "," classes)

let poisson name ~bandwidth alpha =
  Printf.sprintf {|{"name":"%s","bandwidth":%d,"alpha":%s,"mu":1.0}|} name
    bandwidth alpha

let pascal name ~bandwidth alpha beta =
  Printf.sprintf {|{"name":"%s","bandwidth":%d,"alpha":%s,"beta":%s,"mu":1.5}|}
    name bandwidth alpha beta

let solve id tree m =
  Printf.sprintf {|{"id":%s,"op":"solve","tree":"%s","model":%s}|} id tree m

let read op id tree = Printf.sprintf {|{"id":%s,"op":"%s","tree":"%s"}|} id op tree

let shadow_costs id tree weights =
  Printf.sprintf {|{"id":%s,"op":"shadow_costs","tree":"%s","weights":[%s]}|}
    id tree weights

let admit id tree cls weights =
  Printf.sprintf
    {|{"id":%s,"op":"admit","tree":"%s","class":%d,"weights":[%s]}|} id tree
    cls weights

let delta id tree changes =
  Printf.sprintf {|{"id":%s,"op":"delta","tree":"%s","changes":[%s]}|} id tree
    (String.concat "," changes)

(* Models of 4 to 66 ports with 1 to 8 classes.  The second class of
   tree "b" has a name holding a quote, two control characters (SOH and
   TAB) and a non-ASCII letter. *)
let model_a = model 4 4 [ poisson "p" ~bandwidth:1 "0.3" ]

let model_b =
  model 8 8
    [
      poisson "p" ~bandwidth:1 "0.4";
      pascal {|q\"\u0001x\té|} ~bandwidth:2 "0.3" "0.1";
    ]

let model_b_warmer =
  model 8 8
    [
      poisson "p" ~bandwidth:1 "0.45";
      pascal {|q\"\u0001x\té|} ~bandwidth:2 "0.3" "0.1";
    ]

let model_c =
  model 16 12
    [
      poisson "tiny" ~bandwidth:1 "1e-9";
      pascal "burst" ~bandwidth:2 "0.2" "0.05";
      poisson "wide" ~bandwidth:3 "0.01";
    ]

let model_d =
  model 32 32
    (List.init 8 (fun i ->
         let name = Printf.sprintf "d%d" i in
         let bandwidth = 1 + (i mod 3) in
         let alpha = Printf.sprintf "%.3f" (0.05 +. (0.01 *. float_of_int i)) in
         if i mod 2 = 0 then poisson name ~bandwidth alpha
         else pascal name ~bandwidth alpha "0.02"))

let model_e =
  model 66 66
    [
      poisson "e0" ~bandwidth:1 "2.5";
      pascal "e1" ~bandwidth:2 "0.7" "0.3";
      poisson "e2" ~bandwidth:4 "0.25";
      pascal "e3" ~bandwidth:8 "0.0625" "0.001";
    ]

(* An overloaded switch: blocking close to 1. *)
let model_f = model 4 6 [ poisson "hot" ~bandwidth:2 "50" ]

let overlong = String.make (Server.Lines.max_bytes + 10) 'x'

let conversation =
  [
    (* every op on a one-class tree *)
    solve "1" "a" model_a;
    read "blocking" "2" "a";
    shadow_costs "3" "a" "1";
    admit "4" "a" 0 "1";
    delta "5" "a" [ {|{"class":0,"alpha":0.35}|} ];
    read "blocking" "6" "a";
    (* ids of every JSON kind *)
    read "blocking" "-7" "a";
    read "blocking" "4611686018427387903" "a";
    read "blocking" "1.5" "a";
    read "blocking" "1.5e-7" "a";
    read "blocking" "1e400" "a";
    read "blocking" {|"str"|} "a";
    read "blocking" {|"q\"uo\\te\u0002"|} "a";
    read "blocking" "null" "a";
    read "blocking" "true" "a";
    read "blocking" "false" "a";
    read "blocking" {|[1,"two",null,[3.0]]|} "a";
    read "blocking" {|{"k":1,"n":{"m":[]}}|} "a";
    (* a class name that needs escaping; a compatible re-solve *)
    solve "10" "b" model_b;
    read "blocking" "11" "b";
    solve "12" "b" model_b_warmer;
    delta "13" "b" [ {|{"class":1,"beta":0.05}|}; {|{"class":0,"alpha":0.5}|} ];
    shadow_costs "14" "b" "1,2";
    shadow_costs "15" "b" "1.0,0.25";
    admit "16" "b" 1 "1,0.25";
    (* weights past the float writer's fast range, refused weights and a
       refused class *)
    admit "17" "b" 0 "1e20,1";
    admit "18" "b" 0 "1e400,1";
    admit "19" "b" 1 "0,0";
    admit "20" "b" 0 "-3,1";
    admit "21" "b" 0 "1e-12,1";
    (* an alpha near 1e-9, a rectangular switch *)
    solve "30" "c" model_c;
    read "blocking" "31" "c";
    shadow_costs "32" "c" "1,0.5,0.25";
    delta "33" "c" [ {|{"class":0,"alpha":3e-9}|} ];
    admit "34" "c" 2 "1,1,1e16";
    admit "35" "c" 1 "1,123456789012345678,1";
    (* eight classes, then an incompatible re-solve *)
    solve "40" "d" model_d;
    read "blocking" "41" "d";
    shadow_costs "42" "d" "1,0.5,0.33,0.25,0.2,0.16,0.14,0.125";
    delta "43" "d" [ {|{"class":3,"alpha":0.09,"beta":0.03}|} ];
    admit "44" "d" 7 "1,1,1,1,1,1,1,1";
    solve "45" "d" model_a;
    read "blocking" "46" "d";
    (* 66 ports *)
    solve "50" "e" model_e;
    shadow_costs "51" "e" "1,2,4,8";
    delta "52" "e" [ {|{"class":0,"alpha":2.75}|} ];
    admit "53" "e" 3 "1,2,4,8";
    (* blocking near 1 *)
    solve "60" "f" model_f;
    read "blocking" "61" "f";
    admit "62" "f" 0 "1";
    (* errors: unknown trees, ops and classes *)
    read "blocking" "100" "ghost";
    read "blocking" {|"q"|} {|gh\"ost|};
    delta "101" "ghost" [ {|{"class":0,"alpha":0.1}|} ];
    shadow_costs "102" "ghost" "1";
    admit "103" "ghost" 0 "1";
    {|{"id":104,"op":"solve_all"}|};
    {|{"id":"keep","op":"nope","tree":"a"}|};
    admit "105" "b" 9 "1,1";
    admit "106" "b" (-1) "1,1";
    delta "107" "b" [ {|{"class":9,"alpha":0.1}|} ];
    delta "108" "b" [ {|{"class":0,"alpha":-1}|} ];
    delta "109" "b" [];
    delta "110" "b" [ {|{"class":0}|} ];
    shadow_costs "111" "b" "1";
    {|{"id":112,"op":"shadow_costs","tree":"b","weights":["x"]}|};
    {|{"id":113,"op":"solve","tree":"z"}|};
    solve "114" "z" (model 4 4 [ poisson "bad" ~bandwidth:0 "0.1" ]);
    (* the tree survived every refused change *)
    read "blocking" "115" "b";
    (* malformed and overlong lines *)
    {|{not json|};
    {|[1,2|};
    {|{"op":"blocking","tree":"a"}|};
    {|{"id":116,"op":|};
    "";
    overlong;
    read "blocking" "117" "a";
    {|{"id":"bye","op":"shutdown"}|};
  ]

(* The server answers every non-blank line with exactly one line. *)
let answered = List.filter (fun l -> not (String.equal (String.trim l) "")) conversation

let write_all fd text =
  let bytes = Bytes.of_string text in
  let rec loop offset =
    if offset < Bytes.length bytes then
      match Unix.write fd bytes offset (Bytes.length bytes - offset) with
      | written -> loop (offset + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop offset
  in
  loop 0

(* Serve the conversation; returns the response lines.  The requests go
   in from a domain of their own, so neither side blocks on a full
   pipe. *)
let serve () =
  let in_r, in_w = Unix.pipe ~cloexec:false () in
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let server =
    Domain.spawn (fun () -> Server.run ~input:in_r ~output:out_w ())
  in
  let writer =
    Domain.spawn (fun () ->
        write_all in_w (String.concat "" (List.map (fun l -> l ^ "\n") conversation));
        Unix.close in_w)
  in
  let expected = List.length answered in
  let buffer = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let lines = ref 0 in
  while !lines < expected do
    match Unix.read out_r chunk 0 (Bytes.length chunk) with
    | 0 -> failwith "serve_transcript: the server closed its output early"
    | n ->
        Buffer.add_subbytes buffer chunk 0 n;
        for i = 0 to n - 1 do
          if Bytes.get chunk i = '\n' then incr lines
        done
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Domain.join writer;
  Domain.join server;
  List.iter Unix.close [ in_r; out_r; out_w ];
  List.filter
    (fun l -> not (String.equal l ""))
    (String.split_on_char '\n' (Buffer.contents buffer))

let () =
  let responses = serve () in
  if List.length responses <> List.length answered then
    failwith "serve_transcript: one response per request line expected";
  List.iter2
    (fun request response ->
      let shown =
        if String.length request > 4096 then
          Printf.sprintf "<%d bytes>" (String.length request)
        else request
      in
      Printf.printf "> %s\n< %s\n" shown response)
    answered responses
