(* crossbar-lint: static-analysis pass over the crossbar sources.

   Exit codes: 0 clean, 1 findings reported, 2 usage or I/O error. *)

module Lint = Crossbar_lint
module Typed = Crossbar_lint_typed
module Json = Crossbar_engine.Json

let usage =
  "usage: crossbar_lint [options] [PATH ...]\n\
   \n\
   Parses every .ml/.mli under the given paths (default: lib bin\n\
   examples) with compiler-libs and enforces the untyped rules R1, R2\n\
   and R4-R6 documented in docs/LINT.md.  With --typed, additionally\n\
   reads the .cmt artifacts dune produced and runs the typed rules\n\
   R7-R10, R12 and R13 (R12 and R13 close the per-function effect\n\
   summaries over the call graph: escaping raises, float domains).\n\
   R3 and R11 are retired ids.\n\
   \n\
   options:\n\
   \  --typed         run the Typedtree stage (R7 and up) over .cmt artifacts\n\
   \  --cmt-root DIR  where to look for .cmt files (default:\n\
   \                  _build/default when it exists, else .)\n\
   \  --config FILE   load configuration from FILE (default: lint.json\n\
   \                  next to the working directory when present)\n\
   \  --json -        write the findings report as JSON to stdout\n\
   \  --json FILE     write the findings report as JSON to FILE\n\
   \  --sarif -       write the findings as SARIF 2.1.0 to stdout\n\
   \  --sarif FILE    write the findings as SARIF 2.1.0 to FILE\n\
   \  --rules LIST    comma-separated rule subset to run (e.g. R1,R5)\n\
   \  --stats         print file counts and timings for the typed stage\n\
   \  --dump-config   print the effective configuration as JSON and exit\n\
   \  --list-rules    print the rule table and exit\n\
   \  --help          show this message\n"

let default_paths = [ "lib"; "bin"; "examples" ]
let default_config_file = "lint.json"

let die message =
  prerr_string message;
  prerr_newline ();
  exit 2

let list_rules () =
  List.iter
    (fun rule ->
      Printf.printf "%s  %s\n    %s\n" (Lint.Rule.to_string rule)
        (Lint.Rule.title rule) (Lint.Rule.rationale rule))
    Lint.Rule.all

let write_target target text =
  match target with
  | "-" ->
      print_string text;
      print_newline ()
  | file ->
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc text;
          output_char oc '\n')

let () =
  let json_target = ref None in
  let sarif_target = ref None in
  let rules = ref None in
  let typed = ref false in
  let cmt_root = ref None in
  let config_file = ref None in
  let stats = ref false in
  let dump_config = ref false in
  let paths = ref [] in
  let arguments = Array.to_list Sys.argv |> List.tl in
  let rec parse = function
    | [] -> ()
    | "--help" :: _ | "-h" :: _ ->
        print_string usage;
        exit 0
    | "--list-rules" :: _ ->
        list_rules ();
        exit 0
    | "--typed" :: rest ->
        typed := true;
        parse rest
    | "--stats" :: rest ->
        stats := true;
        parse rest
    | "--dump-config" :: rest ->
        dump_config := true;
        parse rest
    | "--cmt-root" :: dir :: rest ->
        cmt_root := Some dir;
        parse rest
    | [ "--cmt-root" ] -> die "crossbar_lint: --cmt-root needs a directory"
    | "--config" :: file :: rest ->
        config_file := Some file;
        parse rest
    | [ "--config" ] -> die "crossbar_lint: --config needs a file"
    | "--json" :: target :: rest ->
        json_target := Some target;
        parse rest
    | [ "--json" ] -> die "crossbar_lint: --json needs a target (- or FILE)"
    | "--sarif" :: target :: rest ->
        sarif_target := Some target;
        parse rest
    | [ "--sarif" ] -> die "crossbar_lint: --sarif needs a target (- or FILE)"
    | "--rules" :: spec :: rest ->
        (match Lint.Rule.parse_list spec with
        | Ok ids -> rules := Some ids
        | Error m -> die (Printf.sprintf "crossbar_lint: %s" m));
        parse rest
    | [ "--rules" ] -> die "crossbar_lint: --rules needs a rule list"
    | flag :: _ when String.length flag > 1 && flag.[0] = '-' && flag <> "-" ->
        die (Printf.sprintf "crossbar_lint: unknown option %s\n%s" flag usage)
    | path :: rest ->
        paths := path :: !paths;
        parse rest
  in
  parse arguments;
  (match !rules with
  | Some ids when (not !typed) && List.exists Lint.Rule.typed ids ->
      die
        "crossbar_lint: R7 and up are typed rules; they need .cmt \
         artifacts, so pass --typed"
  | _ -> ());
  let paths =
    match List.rev !paths with [] -> default_paths | paths -> paths
  in
  List.iter
    (fun path ->
      if not (Sys.file_exists path) then
        die (Printf.sprintf "crossbar_lint: no such path %s" path))
    paths;
  let config =
    (* An explicit --config must parse; the conventional lint.json is
       optional but, when present, malformed is still an error — silently
       linting under defaults would mask the drift. *)
    let file =
      match !config_file with
      | Some file -> Some file
      | None ->
          if Sys.file_exists default_config_file then
            Some default_config_file
          else None
    in
    match file with
    | None -> Lint.Config.default
    | Some file -> (
        match Lint.Config.load_file file with
        | Ok config -> config
        | Error m -> die (Printf.sprintf "crossbar_lint: %s: %s" file m))
  in
  let config =
    match !rules with
    | None -> config
    | Some rules -> { config with Lint.Config.rules }
  in
  if !dump_config then begin
    print_string (Json.to_string (Lint.Config.to_json config));
    print_newline ();
    exit 0
  end;
  (* Both stages share one parse of the sources. *)
  let loaded = Lint.Driver.load paths in
  let findings = Lint.Driver.lint_loaded ~config loaded in
  let findings, typed_stats =
    if not !typed then (findings, None)
    else begin
      let cmt_root =
        match !cmt_root with
        | Some dir -> dir
        | None ->
            if Sys.file_exists "_build/default" then "_build/default" else "."
      in
      let cmt_index = Typed.Cmt_index.scan ~root:cmt_root in
      let typed_findings, stats =
        Typed.Driver.run_loaded ~config ~cmt_index ~cmt_root loaded
      in
      List.iter
        (fun (path, reason) ->
          Printf.eprintf "crossbar_lint: warning: %s: %s\n" path reason)
        stats.Typed.Driver.errors;
      (List.sort Lint.Finding.compare (findings @ typed_findings), Some stats)
    end
  in
  (match !json_target with
  | Some target ->
      write_target target
        (Json.to_string (Lint.Finding.report_to_json findings))
  | None -> ());
  (match !sarif_target with
  | Some target -> write_target target (Lint.Sarif.to_string findings)
  | None -> ());
  if !json_target = None && !sarif_target = None then
    Lint.Driver.pp_report Format.std_formatter findings;
  (match typed_stats with
  | Some s when !stats ->
      Printf.printf
        "typed stage: %d files, %d analysed, %d without .cmt\n"
        s.Typed.Driver.files
        (s.Typed.Driver.files - List.length s.Typed.Driver.missing_cmt)
        (List.length s.Typed.Driver.missing_cmt);
      Printf.printf
        "typed stage timings: extract %.1fms, capture %.1fms (%d \
         iterations), callgraph %.1fms, effects %.1fms (%d raise + %d \
         domain iterations)\n"
        (1000. *. s.Typed.Driver.extract_s)
        (1000. *. s.Typed.Driver.capture_s)
        s.Typed.Driver.capture_iterations
        (1000. *. s.Typed.Driver.graph_s)
        (1000. *. s.Typed.Driver.effects_s)
        s.Typed.Driver.raise_iterations s.Typed.Driver.domain_iterations
  | _ -> ());
  exit (if findings = [] then 0 else 1)
