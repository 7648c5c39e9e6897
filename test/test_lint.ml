open Helpers
module Rule = Crossbar_lint.Rule
module Config = Crossbar_lint.Config
module Finding = Crossbar_lint.Finding
module Driver = Crossbar_lint.Driver
module Json = Crossbar_engine.Json

(* The fixtures live under test/lint_fixtures; the production prefixes in
   Config.default are remapped onto that tree so each rule can be exercised
   in isolation with known violation counts. *)
let fixture_config rules =
  {
    Config.default with
    rules;
    numerics_prefixes = [];
    r2_prefixes = [ "lint_fixtures" ];
    r4_prefixes = [ "lint_fixtures" ];
    r6_prefixes = [ "lint_fixtures/r6" ];
  }

let lint_rule rule paths = Driver.lint ~config:(fixture_config [ rule ]) paths

let check_findings label expected findings =
  check_int (label ^ ": count") (List.length expected) (List.length findings);
  List.iter2
    (fun (rule, line) (f : Finding.t) ->
      check_bool
        (Printf.sprintf "%s: rule at line %d" label line)
        true
        (Rule.compare rule f.Finding.rule = 0);
      check_int (label ^ ": line") line f.Finding.line)
    expected findings

let test_r1_float_comparisons () =
  (* Only the magic-literal ordering; the float equalities on lines 3, 4,
     7 and 8 are R7's. *)
  check_findings "r1" [ (Rule.R1, 5) ]
    (lint_rule Rule.R1 [ "lint_fixtures/r1_float_eq.ml" ])

let test_r1_suppression () =
  let fixture = "lint_fixtures/r1_suppressed.ml" in
  check_findings "r1 suppressed" [] (lint_rule Rule.R1 [ fixture ]);
  (* The same file with the directive turned into a plain comment, so the
     line numbers stay put: the finding must come back at the code's line,
     or the suppression above proved nothing. *)
  let text = In_channel.with_open_bin fixture In_channel.input_all in
  let plain =
    String.split_on_char '\n' text
    |> List.map (fun line ->
           if String.starts_with ~prefix:"(* lint:" line then
             "(* plain comment *)"
           else line)
    |> String.concat "\n"
  in
  let copy = Filename.temp_file "r1_unsuppressed" ".ml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove copy)
    (fun () ->
      Out_channel.with_open_bin copy (fun oc ->
          Out_channel.output_string oc plain);
      check_findings "r1 unsuppressed" [ (Rule.R1, 4) ]
        (lint_rule Rule.R1 [ copy ]))

let test_r2_raw_transcendentals () =
  check_findings "r2"
    [ (Rule.R2, 3); (Rule.R2, 4); (Rule.R2, 5) ]
    (lint_rule Rule.R2 [ "lint_fixtures/r2_raw_exp.ml" ])

let test_r4_stdout_writes () =
  check_findings "r4"
    [ (Rule.R4, 3); (Rule.R4, 4) ]
    (lint_rule Rule.R4 [ "lint_fixtures/r4_stdout.ml" ])

let test_r5_swallowed_exceptions () =
  check_findings "r5"
    [ (Rule.R5, 3); (Rule.R5, 8) ]
    (lint_rule Rule.R5 [ "lint_fixtures/r5_swallow.ml" ])

let test_r6_missing_interface () =
  let findings = lint_rule Rule.R6 [ "lint_fixtures" ] in
  check_findings "r6" [ (Rule.R6, 1) ] findings;
  let f = List.hd findings in
  check_bool "r6: names the module" true
    (String.equal f.Finding.file "lint_fixtures/r6/no_interface.ml")

let test_clean_file_has_no_findings () =
  let config =
    { (fixture_config Rule.all) with Config.r6_prefixes = [ "lint_fixtures" ] }
  in
  check_findings "clean" []
    (Driver.lint ~config
       [ "lint_fixtures/clean.ml"; "lint_fixtures/clean.mli" ])

let fixture_tree_findings () =
  Driver.lint ~config:(fixture_config Rule.all) [ "lint_fixtures" ]

let test_whole_tree_totals () =
  let findings = fixture_tree_findings () in
  (* 1 R1 + 3 R2 + 2 R4 + 2 R5 + 1 R6; the typed rules need .cmt
     artifacts and never fire from the Parsetree driver. *)
  check_int "total" 9 (List.length findings);
  List.iter
    (fun rule ->
      let expected =
        match rule with
        | Rule.R2 -> 3
        | Rule.R4 | Rule.R5 -> 2
        | Rule.R1 | Rule.R6 -> 1
        | Rule.R7 | Rule.R8 | Rule.R9 | Rule.R10 | Rule.R12 | Rule.R13
        | Rule.Syntax ->
            0
      in
      check_int
        (Printf.sprintf "count for %s" (Rule.to_string rule))
        expected
        (List.length
           (List.filter
              (fun (f : Finding.t) -> Rule.compare f.Finding.rule rule = 0)
              findings)))
    Rule.all

let test_json_report_roundtrip () =
  let findings = fixture_tree_findings () in
  let text = Json.to_string (Finding.report_to_json findings) in
  match Json.of_string text with
  | Error m -> Alcotest.failf "report does not re-parse: %s" m
  | Ok json -> (
      check_bool "schema present" true
        (Json.member "schema" json = Some (Json.String Finding.schema));
      check_bool "count present" true
        (Json.member "count" json = Some (Json.Int (List.length findings)));
      match Finding.report_of_json json with
      | Error m -> Alcotest.failf "report_of_json failed: %s" m
      | Ok decoded ->
          check_bool "lossless roundtrip" true (decoded = findings))

let test_json_report_rejects_wrong_schema () =
  let doc =
    Json.Assoc
      [
        ("schema", Json.String "not-a-lint-report/9");
        ("count", Json.Int 0);
        ("findings", Json.List []);
      ]
  in
  match Finding.report_of_json doc with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a report with the wrong schema"

let test_rules_flag_refuses_syntax () =
  (* The syntax check always runs, so naming it alone would lint for
     nothing: R0 is refused like an unknown id. *)
  List.iter
    (fun spec ->
      match Rule.parse_list spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parse_list accepted %S" spec)
    [ "R0"; "SYNTAX"; "r0"; "R1,R0" ];
  (* A report's syntax findings still read back. *)
  check_bool "of_string maps R0 to the syntax pseudo-rule" true
    (match Rule.of_string "R0" with Some Rule.Syntax -> true | _ -> false);
  check_int "CLI exit code" 2
    (Sys.command
       "../bin/crossbar_lint.exe --rules R0 lint_fixtures/r1_float_eq.ml \
        >/dev/null 2>&1")

let test_default_config_is_lint_json () =
  (* lint.json is regenerated with --dump-config, which prints the
     compiled-in default this way; the two must not drift apart. *)
  Alcotest.(check string)
    "lint.json is the dumped default"
    (In_channel.with_open_bin "../lint.json" In_channel.input_all)
    (Json.to_string (Config.to_json Config.default) ^ "\n")

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          case "R1 float comparisons" test_r1_float_comparisons;
          case "R1 suppression comment" test_r1_suppression;
          case "R2 raw transcendentals" test_r2_raw_transcendentals;
          case "R4 stdout writes" test_r4_stdout_writes;
          case "R5 swallowed exceptions" test_r5_swallowed_exceptions;
          case "R6 missing interface" test_r6_missing_interface;
          case "clean file" test_clean_file_has_no_findings;
          case "whole-tree totals" test_whole_tree_totals;
        ] );
      ( "json",
        [
          case "report roundtrip" test_json_report_roundtrip;
          case "rejects wrong schema" test_json_report_rejects_wrong_schema;
        ] );
      ( "config",
        [
          case "rules flag refuses R0" test_rules_flag_refuses_syntax;
          case "default config is lint.json" test_default_config_is_lint_json;
        ] );
    ]
