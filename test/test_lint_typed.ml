open Helpers
module Rule = Crossbar_lint.Rule
module Config = Crossbar_lint.Config
module Finding = Crossbar_lint.Finding
module Sarif = Crossbar_lint.Sarif
module Typed = Crossbar_lint_typed
module Json = Crossbar_engine.Json

(* The typed stage needs real .cmt artifacts, so each suite compiles the
   fixtures with `ocamlc -bin-annot` into a scratch directory obtained
   from [Filename.temp_dir] — never inside the source tree (the
   .gitignore typed_scratch_* pattern is belt and braces for older
   binaries).  [Config.normalize] drops leading slashes consistently on
   both paths and configured prefixes, so absolute scratch paths match
   themselves. *)

(* Order is compile order: [pool.ml] first (the r10/r12 fixtures call
   it), each r9 module before the engine entry that references it, each
   r13 producer module before its consumer. *)
let fixture_files =
  [
    "pool.ml";
    "r7_float_eq.ml";
    "r8_mutable.ml";
    "r9_state.ml";
    "r9_higher_order.ml";
    "r10_capture.ml";
    "r10_indirect.ml";
    "r10_guarded.ml";
    "r12_raise.ml";
    "logspace.ml";
    "lattice.ml";
    "r13_mix.ml";
    "engine/r9_entry.ml";
    "engine/r9_ho_entry.ml";
  ]

let sh cmd =
  if Sys.command cmd <> 0 then Alcotest.failf "command failed: %s" cmd

let compile dir file =
  sh (Printf.sprintf "ocamlc -bin-annot -I %s -c %s/%s 2>/dev/null" dir dir file)

(* One temp root per logical scratch name, created on first use and
   shared by the suites that reuse the same compiled fixtures. *)
let scratch_roots : (string, string) Hashtbl.t = Hashtbl.create 4

let scratch_dir name =
  match Hashtbl.find_opt scratch_roots name with
  | Some dir -> dir
  | None ->
      let dir = Filename.temp_dir name "" in
      Hashtbl.add scratch_roots name dir;
      dir

let setup dir =
  sh (Printf.sprintf "rm -rf %s" dir);
  sh (Printf.sprintf "mkdir -p %s/engine" dir);
  List.iter
    (fun file ->
      sh (Printf.sprintf "cp lint_typed_fixtures/%s %s/%s" file dir file);
      compile dir file)
    fixture_files

(* The read-only fixture tree most cases share, compiled on first use so
   any case also runs alone. *)
let rules_dir =
  lazy
    (let dir = scratch_dir "typed_scratch_rules" in
     setup dir;
     dir)

let typed_config ~dir rules =
  {
    Config.default with
    rules;
    numerics_prefixes = [];
    pool_scope = Config.Paths [ dir ];
    r9_roots = [ dir ^ "/engine" ];
  }

let index dir =
  Typed.Cmt_index.of_pairs
    (List.map
       (fun file ->
         let base = Filename.remove_extension file in
         (dir ^ "/" ^ file, dir ^ "/" ^ base ^ ".cmt"))
       fixture_files)

let run ~dir rules paths =
  Typed.Driver.run ~config:(typed_config ~dir rules) ~cmt_index:(index dir)
    ~cmt_root:"." paths

let count rule findings =
  List.length
    (List.filter
       (fun (f : Finding.t) -> Rule.compare f.Finding.rule rule = 0)
       findings)

let contains haystack needle =
  let n = String.length needle in
  let rec search from =
    from + n <= String.length haystack
    && (String.equal (String.sub haystack from n) needle || search (from + 1))
  in
  search 0

let mentions findings needle =
  List.exists
    (fun (f : Finding.t) -> contains f.Finding.message needle)
    findings

(* ---------- per-rule fixtures ---------- *)

let test_r7_exact_count () =
  let dir = Lazy.force rules_dir in
  let findings, stats =
    run ~dir [ Rule.R7 ] [ dir ^ "/r7_float_eq.ml" ]
  in
  check_int "r7: analysed" 1 stats.Typed.Driver.files;
  check_bool "r7: no missing cmt" true (stats.Typed.Driver.missing_cmt = []);
  check_bool "r7: no errors" true (stats.Typed.Driver.errors = []);
  check_int "r7: count" 5 (List.length findings);
  check_int "r7: all R7" 5 (count Rule.R7 findings)

let test_r8_exact_count () =
  let dir = Lazy.force rules_dir in
  let findings, _ = run ~dir [ Rule.R8 ] [ dir ^ "/r8_mutable.ml" ] in
  check_int "r8: count" 6 (List.length findings);
  check_int "r8: all R8" 6 (count Rule.R8 findings)

let test_r9_exact_count () =
  let dir = Lazy.force rules_dir in
  let findings, _ =
    run ~dir [ Rule.R9 ]
      [ dir ^ "/r9_state.ml"; dir ^ "/engine/r9_entry.ml" ]
  in
  check_int "r9: count" 2 (List.length findings);
  check_int "r9: all R9" 2 (count Rule.R9 findings);
  List.iter
    (fun (f : Finding.t) ->
      check_bool "r9: lands on the file holding the write" true
        (String.equal f.Finding.file (dir ^ "/r9_state.ml")))
    findings;
  check_bool "r9: names the ref write" true (mentions findings "hits");
  check_bool "r9: names the record field write" true
    (mentions findings "stats.total")

(* ---------- v3 capture stage: R10 and R9's higher-order closure ---------- *)

let test_r10_exact_count () =
  let dir = Lazy.force rules_dir in
  let findings, stats = run ~dir [ Rule.R10 ] [ dir ^ "/r10_capture.ml" ] in
  check_bool "r10: no missing cmt" true (stats.Typed.Driver.missing_cmt = []);
  check_bool "r10: no errors" true (stats.Typed.Driver.errors = []);
  check_int "r10: count" 3 (List.length findings);
  check_int "r10: all R10" 3 (count Rule.R10 findings);
  check_bool "r10: literal lambda capture" true (mentions findings "totals");
  check_bool "r10: record-stored closure capture" true (mentions findings "log");
  check_bool "r10: partial-application capture" true
    (mentions findings "sink (a mutable");
  check_bool "r10: sanctioned Atomic stays clean" true
    (not (mentions findings "counter"))

let test_r10_indirect_chain () =
  let dir = Lazy.force rules_dir in
  let findings, _ = run ~dir [ Rule.R10 ] [ dir ^ "/r10_indirect.ml" ] in
  check_int "indirect: count" 1 (List.length findings);
  check_bool "indirect: names the capture" true (mentions findings "slots");
  check_bool "indirect: witnesses the forwarding chain" true
    (mentions findings "spawn_all -> Pool.run")

let test_r10_two_files () =
  (* The capture fixpoint runs over both files' summaries at once: the
     direct shapes of r10_capture.ml plus the forwarding chain of
     r10_indirect.ml, nothing lost or doubled by the union. *)
  let dir = Lazy.force rules_dir in
  let findings, stats =
    run ~dir [ Rule.R10 ] [ dir ^ "/r10_capture.ml"; dir ^ "/r10_indirect.ml" ]
  in
  check_int "two files: analysed" 2 stats.Typed.Driver.files;
  check_int "two files: r10 findings" 4 (count Rule.R10 findings)

let test_r10_guarded_and_suppressed () =
  let dir = scratch_dir "typed_scratch_guard" in
  setup dir;
  let target = dir ^ "/r10_guarded.ml" in
  let findings, _ = run ~dir [ Rule.R10 ] [ target ] in
  check_int "guarded: clean" 0 (List.length findings);
  (* Reverting the guarded= annotation must bring the escape back with
     exactly its capture chain. *)
  let text = In_channel.with_open_bin target In_channel.input_all in
  let stripped =
    String.split_on_char '\n' text
    |> List.filter (fun line -> not (contains line "guarded="))
    |> String.concat "\n"
  in
  Out_channel.with_open_bin target (fun oc ->
      Out_channel.output_string oc stripped);
  compile dir "r10_guarded.ml";
  let findings, _ = run ~dir [ Rule.R10 ] [ target ] in
  check_int "stripped: the escape returns" 1 (List.length findings);
  check_bool "stripped: names groups" true
    (mentions findings "groups (an array)");
  check_bool "stripped: names requests" true
    (mentions findings "requests (an array)");
  check_bool "stripped: names the boundary" true (mentions findings "Pool.run");
  check_bool "stripped: disable=R10 still suppresses" true
    (not (mentions findings "noisy"))

let annotated_sites =
  [
    ("../lib/engine/pool.ml", "guarded=results");
    ("../lib/engine/sweep.ml", "guarded=points");
    ("../lib/engine/sweep.ml", "guarded=starts,points");
    ("../lib/core/band_pool.ml", "guarded=mb");
    ("../lib/core/convolution.ml", "guarded=ctx,left,right,result");
  ]

let test_tree_annotations_present () =
  (* The cleaned tree passes R10 through these directives; losing one
     would resurface the finding in `dune build @lint` — this pins them
     so an accidental edit fails fast with a named site. *)
  List.iter
    (fun (file, directive) ->
      let text = In_channel.with_open_bin file In_channel.input_all in
      check_bool (file ^ " keeps " ^ directive) true (contains text directive))
    annotated_sites

let test_r9_higher_order () =
  let dir = Lazy.force rules_dir in
  let findings, _ =
    run ~dir [ Rule.R9 ]
      [ dir ^ "/r9_higher_order.ml"; dir ^ "/engine/r9_ho_entry.ml" ]
  in
  check_int "r9 ho: only the control is flagged" 1 (List.length findings);
  check_bool "r9 ho: names the unlocked write" true (mentions findings "total");
  check_bool "r9 ho: wrapper-run callbacks stay clean" true
    (not (mentions findings "counter"))

(* ---------- v4 effect stage: R12, R13 ---------- *)

let test_r12_exact_count () =
  let dir = Lazy.force rules_dir in
  let findings, stats =
    run ~dir [ Rule.R12 ] [ dir ^ "/pool.ml"; dir ^ "/r12_raise.ml" ]
  in
  check_int "r12: count" 2 (List.length findings);
  check_int "r12: all R12" 2 (count Rule.R12 findings);
  check_bool "r12: direct raise in the lambda" true
    (mentions findings "raise of Overflow escapes through the lambda direct");
  check_bool "r12: escaping callee via the fixpoint" true
    (mentions findings "risky, called from the lambda indirect");
  check_bool "r12: lambda-local handler stays clean" true
    (not (mentions findings "guarded"));
  check_bool "r12: total callees stay clean" true
    (not (mentions findings "lambda safe"));
  check_bool "r12: fixpoint iterated" true
    (stats.Typed.Driver.raise_iterations >= 1)

let test_r13_exact_count () =
  let dir = Lazy.force rules_dir in
  let findings, stats =
    run ~dir [ Rule.R13 ]
      [ dir ^ "/logspace.ml"; dir ^ "/lattice.ml"; dir ^ "/r13_mix.ml" ]
  in
  check_int "r13: count" 6 (List.length findings);
  check_int "r13: all R13" 6 (count Rule.R13 findings);
  check_bool "r13: log + linear add" true
    (mentions findings "bad_add adds/subtracts log-domain and linear-domain");
  check_bool "r13: linear - log sub" true
    (mentions findings "bad_sub adds/subtracts linear-domain and log-domain");
  check_bool "r13: return domain resolved across the call edge" true
    (mentions findings "indirect_add adds/subtracts log-domain");
  check_bool "r13: double exp" true (mentions findings "double_exp");
  check_bool "r13: cross-profile mantissa compare" true
    (mentions findings "cross_cmp orders rescaled mantissas");
  check_bool "r13: unchecked accessor is a mantissa producer too" true
    (mentions findings "cross_unsafe_cmp orders rescaled mantissas");
  check_bool "r13: single-domain functions stay clean" true
    (not (mentions findings "ok_"));
  check_bool "r13: fixpoint iterated" true
    (stats.Typed.Driver.domain_iterations >= 1)

let effect_rules = [ Rule.R12; Rule.R13 ]

let effect_paths dir =
  [
    dir ^ "/pool.ml";
    dir ^ "/r12_raise.ml";
    dir ^ "/logspace.ml";
    dir ^ "/lattice.ml";
    dir ^ "/r13_mix.ml";
  ]

let test_effects_one_run () =
  (* Both effect rules over the five effect fixtures in one run,
     as `dune build @lint` runs them: each rule keeps its exact count,
     and both effect fixpoints iterate at least once — a zero would mean
     R12 or R13 silently skipped its closure. *)
  let dir = Lazy.force rules_dir in
  let findings, stats = run ~dir effect_rules (effect_paths dir) in
  check_int "effects: analysed" 5 stats.Typed.Driver.files;
  check_int "effects: r12" 2 (count Rule.R12 findings);
  check_int "effects: r13" 6 (count Rule.R13 findings);
  check_bool "effects: raise fixpoint iterated" true
    (stats.Typed.Driver.raise_iterations >= 1);
  check_bool "effects: domain fixpoint iterated" true
    (stats.Typed.Driver.domain_iterations >= 1)

(* ---------- whole directories ---------- *)

let test_whole_dir_and_edit () =
  (* A run is a plain function of the sources and their .cmt files:
     the whole fixture tree under R7, then again after one fixture gains
     a comparison — the second run sees the edit, nothing carries over. *)
  let dir = scratch_dir "typed_scratch_whole" in
  setup dir;
  let findings, stats = run ~dir [ Rule.R7 ] [ dir ] in
  check_int "dir: files" 14 stats.Typed.Driver.files;
  check_bool "dir: no missing cmt" true (stats.Typed.Driver.missing_cmt = []);
  check_int "dir: r7 findings" 5 (List.length findings);
  let target = dir ^ "/r7_float_eq.ml" in
  Out_channel.with_open_gen [ Open_append ] 0o644 target (fun oc ->
      Out_channel.output_string oc "let extra = Float.equal\n");
  compile dir "r7_float_eq.ml";
  let findings, _ = run ~dir [ Rule.R7 ] [ dir ] in
  check_int "edited: r7 findings" 6 (List.length findings)

let test_overlapping_paths () =
  (* A file named both through its directory and on its own is analysed
     once: same file count, same findings as the directory alone. *)
  let dir = Lazy.force rules_dir in
  let rules = [ Rule.R7; Rule.R10; Rule.R12; Rule.R13 ] in
  let alone, alone_stats = run ~dir rules [ dir ] in
  let both, both_stats = run ~dir rules [ dir; dir ^ "/r7_float_eq.ml" ] in
  check_int "overlap: files" alone_stats.Typed.Driver.files
    both_stats.Typed.Driver.files;
  check_int "overlap: 14 files" 14 both_stats.Typed.Driver.files;
  check_bool "overlap: findings" true (alone = both)

(* ---------- SARIF ---------- *)

let sample_findings =
  [
    Finding.make ~rule:Rule.R1 ~file:"lib/core/solver.ml" ~line:10 ~col:4
      "float = against literal";
    Finding.make ~rule:Rule.R7 ~file:"lib/sim/event_heap.ml" ~line:3 ~col:0
      "exact float comparison";
  ]

let test_sarif_document_shape () =
  match Json.of_string (Sarif.to_string sample_findings) with
  | Error m -> Alcotest.failf "SARIF does not re-parse: %s" m
  | Ok json -> (
      check_bool "version" true
        (Json.member "version" json = Some (Json.String "2.1.0"));
      match Json.member "runs" json with
      | Some (Json.List [ run ]) -> (
          (match Json.member "tool" run with
          | Some tool -> (
              match Json.member "driver" tool with
              | Some driver ->
                  check_bool "driver name" true
                    (Json.member "name" driver
                    = Some (Json.String "crossbar-lint"));
                  (* The driver carries the whole catalogue, findings or
                     not — the typed rules must be advertised to SARIF
                     viewers, and the retired ids must not. *)
                  let rule_ids =
                    match Json.member "rules" driver with
                    | Some (Json.List rules) ->
                        List.filter_map (Json.member "id") rules
                    | _ -> []
                  in
                  check_int "driver rules: full catalogue" 11
                    (List.length rule_ids);
                  List.iter
                    (fun id ->
                      check_bool ("driver rules include " ^ id) true
                        (List.mem (Json.String id) rule_ids))
                    [ "R7"; "R12"; "R13" ];
                  List.iter
                    (fun id ->
                      check_bool ("driver rules omit " ^ id) false
                        (List.mem (Json.String id) rule_ids))
                    [ "R3"; "R11" ]
              | None -> Alcotest.fail "missing tool.driver")
          | None -> Alcotest.fail "missing tool");
          match Json.member "results" run with
          | Some (Json.List results) ->
              check_int "one result per finding" 2 (List.length results);
              List.iter2
                (fun (f : Finding.t) result ->
                  check_bool "ruleId" true
                    (Json.member "ruleId" result
                    = Some (Json.String (Rule.to_string f.Finding.rule))))
                sample_findings results
          | _ -> Alcotest.fail "missing results")
      | _ -> Alcotest.fail "expected exactly one run")

let test_sarif_empty_report () =
  match Json.of_string (Sarif.to_string []) with
  | Error m -> Alcotest.failf "empty SARIF does not re-parse: %s" m
  | Ok json -> (
      match Json.member "runs" json with
      | Some (Json.List [ run ]) ->
          check_bool "empty results" true
            (Json.member "results" run = Some (Json.List []))
      | _ -> Alcotest.fail "expected exactly one run")

(* ---------- config round-trip ---------- *)

let config_gen =
  let open QCheck2.Gen in
  let word = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  let words = list_size (int_range 0 4) word in
  let* mask = list_repeat (List.length Rule.all) bool in
  let rules =
    List.concat
      (List.map2 (fun keep rule -> if keep then [ rule ] else []) mask
         Rule.all)
  in
  let* ordering_literals = list_size (int_range 0 3) (float_range (-4.) 4.) in
  let* scope_is_paths = bool in
  let* scope_prefixes = words in
  let* numerics_prefixes = words in
  let* r2_prefixes = words in
  let* r9_roots = words in
  let* r9_lock_wrappers = words in
  let* r8_mutable_types = words in
  return
    {
      Config.default with
      rules;
      ordering_literals;
      numerics_prefixes;
      r2_prefixes;
      pool_scope =
        (if scope_is_paths then Config.Paths scope_prefixes
         else Config.Reachable_from scope_prefixes);
      r9_roots;
      r9_lock_wrappers;
      r8_mutable_types;
    }

let config_roundtrip =
  QCheck2.Test.make ~name:"config JSON roundtrip" ~count:200 config_gen
    (fun config ->
      match Config.of_json (Config.to_json config) with
      | Ok decoded -> decoded = config
      | Error m -> QCheck2.Test.fail_reportf "of_json failed: %s" m)

let test_config_load_missing_file () =
  match Config.load_file "no/such/lint.json" with
  | Ok config -> check_bool "missing file is default" true (config = Config.default)
  | Error m -> Alcotest.failf "missing file should not error: %s" m

let test_config_load_malformed () =
  let file = "malformed_lint.json" in
  let oc = open_out file in
  output_string oc "{ not json";
  close_out oc;
  (match Config.load_file file with
  | Ok _ -> Alcotest.fail "malformed config accepted"
  | Error _ -> ());
  Sys.remove file

(* ---------- rule list parsing and CLI exit codes ---------- *)

let test_parse_list () =
  (match Rule.parse_list "R1,R9" with
  | Ok [ Rule.R1; Rule.R9 ] -> ()
  | Ok _ -> Alcotest.fail "parse_list R1,R9: wrong rules"
  | Error m -> Alcotest.failf "parse_list R1,R9 failed: %s" m);
  (match Rule.parse_list " R2 , R4 " with
  | Ok [ Rule.R2; Rule.R4 ] -> ()
  | _ -> Alcotest.fail "parse_list tolerates spaces");
  List.iter
    (fun retired ->
      match Rule.parse_list retired with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parse_list accepted retired %s" retired)
    [ "R3"; "R11" ];
  (match Rule.parse_list "R1,R99" with
  | Error m ->
      check_bool "unknown rule named" true
        (String.length m > 0
        && List.exists
             (fun i ->
               i + 3 <= String.length m && String.equal (String.sub m i 3) "R99")
             (List.init (String.length m - 2) Fun.id))
  | Ok _ -> Alcotest.fail "parse_list accepted R99");
  (match Rule.parse_list "R1,,R2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse_list accepted an empty piece");
  match Rule.parse_list "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse_list accepted an empty list"

let lint_exe = "../bin/crossbar_lint.exe"

(* Runs the CLI with [args]; returns its exit status and its stderr,
   captured in a temporary file that is removed however the run ends. *)
let cli_run args =
  let err_file = Filename.temp_file "crossbar_lint" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err_file)
    (fun () ->
      let status =
        Sys.command
          (Printf.sprintf "%s %s >/dev/null 2>%s" lint_exe args
             (Filename.quote err_file))
      in
      (status, In_channel.with_open_bin err_file In_channel.input_all))

let cli_status args = fst (cli_run args)

let test_cli_unknown_rule_exits_2 () =
  let status, err = cli_run "--rules R1,R99" in
  check_int "exit code" 2 status;
  check_bool "stderr names R99" true
    (List.exists
       (fun i ->
         i + 3 <= String.length err && String.equal (String.sub err i 3) "R99")
       (List.init (max 0 (String.length err - 2)) Fun.id))

let test_cli_malformed_rules_exits_2 () =
  check_int "empty piece" 2 (cli_status "--rules R1,,R2");
  check_int "empty list" 2 (cli_status "--rules ''");
  check_int "missing argument" 2 (cli_status "--rules")

let test_cli_effect_rules_need_typed () =
  (* The typed rules read .cmt artifacts; asking for them without
     --typed would silently lint nothing, so the CLI refuses. *)
  List.iter
    (fun rules ->
      let status, err = cli_run ("--rules " ^ rules) in
      check_int (rules ^ " without --typed") 2 status;
      check_bool
        (rules ^ ": stderr names --typed")
        true (contains err "--typed"))
    [ "R7"; "R8"; "R9"; "R10"; "R12"; "R13"; "R1,R12" ]

let () =
  Alcotest.run "lint_typed"
    [
      ( "typed rules",
        [
          case "R7 float comparisons" test_r7_exact_count;
          case "R8 top-level mutable state" test_r8_exact_count;
          case "R9 unlocked reachable writes" test_r9_exact_count;
        ] );
      ( "capture stage",
        [
          case "R10 capture shapes" test_r10_exact_count;
          case "R10 forwarding chain" test_r10_indirect_chain;
          case "R10 over two files" test_r10_two_files;
          case "R10 guarded= and disable=" test_r10_guarded_and_suppressed;
          case "tree annotations present" test_tree_annotations_present;
          case "R9 higher-order lock wrappers" test_r9_higher_order;
        ] );
      ( "effect stage",
        [
          case "R12 escaping raises" test_r12_exact_count;
          case "R13 cross-domain arithmetic" test_r13_exact_count;
        ] );
      ( "uncached analysis",
        [
          case "all effect rules in one run" test_effects_one_run;
          case "whole fixture dir, then an edit" test_whole_dir_and_edit;
          case "overlapping paths analysed once" test_overlapping_paths;
        ] );
      ( "sarif",
        [
          case "document shape" test_sarif_document_shape;
          case "empty report" test_sarif_empty_report;
        ] );
      ( "config",
        [
          qcheck config_roundtrip;
          case "missing file falls back to default" test_config_load_missing_file;
          case "malformed file errors" test_config_load_malformed;
        ] );
      ( "rules flag",
        [
          case "parse_list" test_parse_list;
          case "CLI exits 2 on unknown rule" test_cli_unknown_rule_exits_2;
          case "CLI exits 2 on malformed list" test_cli_malformed_rules_exits_2;
          case "CLI exits 2 on effect rules without --typed"
            test_cli_effect_rules_need_typed;
        ] );
    ]
