type parsed =
  | Impl of Parsetree.structure
  | Intf
  | Broken  (* a Syntax finding was already emitted *)

type source = { path : string; text : string; parsed : parsed }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let syntax_finding ~path exn =
  let location, detail =
    match exn with
    | Syntaxerr.Error err -> (Syntaxerr.location_of_error err, "syntax error")
    | Lexer.Error (_, loc) -> (loc, "lexing error")
    | _ -> (Location.none, "unparseable source")
  in
  let line, col = Rules.line_col location in
  Finding.make ~rule:Rule.Syntax ~file:path ~line:(max line 1) ~col
    (Printf.sprintf "%s: file does not parse with compiler-libs" detail)

let parse_source path =
  let text = read_file path in
  let lexbuf = Lexing.from_string text in
  Lexing.set_filename lexbuf path;
  Location.input_name := path;
  let is_interface = Filename.check_suffix path ".mli" in
  match
    if is_interface then begin
      ignore (Parse.interface lexbuf);
      Intf
    end
    else Impl (Parse.implementation lexbuf)
  with
  | parsed -> ({ path; text; parsed }, None)
  | exception ((Syntaxerr.Error _ | Lexer.Error _) as exn) ->
      ({ path; text; parsed = Broken }, Some (syntax_finding ~path exn))

let rec discover path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry ->
           if String.starts_with ~prefix:"." entry || String.equal entry "_build"
           then []
           else discover (Filename.concat path entry))
  else if
    Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
  then [ Config.normalize path ]
  else []

let missing_interface_findings ~config sources =
  let scanned = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace scanned s.path ()) sources;
  List.filter_map
    (fun source ->
      if
        Filename.check_suffix source.path ".ml"
        && Config.matches source.path config.Config.r6_prefixes
      then
        let mli = source.path ^ "i" in
        if Hashtbl.mem scanned mli || Sys.file_exists mli then None
        else
          Some
            (Finding.make ~rule:Rule.R6 ~file:source.path ~line:1 ~col:0
               (Printf.sprintf
                  "library module has no interface; add %s to pin its public \
                   surface"
                  (Filename.basename mli)))
      else None)
    sources

type loaded = { sources : source list; syntax_findings : Finding.t list }

(* Overlapping path arguments ([lib/core lib/core/lattice.ml]) name the
   same file twice; keep its first occurrence so each file is parsed,
   analysed and fed to the global passes once, in discovery order. *)
let load paths =
  let seen = Hashtbl.create 64 in
  let files =
    List.concat_map discover paths
    |> List.filter (fun path ->
           if Hashtbl.mem seen path then false
           else (
             Hashtbl.add seen path ();
             true))
  in
  let sources, syntax_findings =
    List.fold_left
      (fun (sources, findings) path ->
        let source, syntax = parse_source path in
        (source :: sources, Option.to_list syntax @ findings))
      ([], []) files
  in
  { sources = List.rev sources; syntax_findings }

let lint_loaded ~config { sources; syntax_findings } =
  let rule_findings =
    List.concat_map
      (fun source ->
        match source.parsed with
        | Impl ast ->
            let raw = Rules.check ~config ~path:source.path ast in
            let suppressions = Suppress.scan source.text in
            List.filter
              (fun (f : Finding.t) ->
                not
                  (Suppress.active suppressions ~rule:f.Finding.rule
                     ~line:f.Finding.line))
              raw
        | Intf | Broken -> [])
      sources
  in
  let r6 =
    if Config.enabled config Rule.R6 then
      missing_interface_findings ~config sources
    else []
  in
  List.sort_uniq Finding.compare (syntax_findings @ rule_findings @ r6)

let lint ~config paths = lint_loaded ~config (load paths)

let pp_report ppf findings =
  List.iter (fun f -> Format.fprintf ppf "%a@." Finding.pp f) findings;
  match List.length findings with
  | 0 -> Format.fprintf ppf "crossbar-lint: clean@."
  | n -> Format.fprintf ppf "crossbar-lint: %d finding(s)@." n
