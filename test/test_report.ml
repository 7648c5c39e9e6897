open Helpers
module Report = Crossbar_workloads.Report
module Paper = Crossbar_workloads.Paper

(* Smoke tests for the rendering layer behind the crossbar_tables CLI:
   each section must produce well-formed TSV with the expected
   row structure (the numeric content is pinned elsewhere). *)

let render f = Format.asprintf "%t" f

let non_comment_lines text =
  String.split_on_char '\n' text
  |> List.filter (fun line ->
         String.length line > 0 && line.[0] <> '#' && line.[0] <> '('
         && String.length line > 1
         && not (String.length line >= 2 && String.sub line 0 2 = "##"))

let columns line = List.length (String.split_on_char '\t' line)

let test_figure_block () =
  let text =
    render (fun ppf -> Report.print_figure ppf ~name:"Figure 1" Paper.figure1)
  in
  let rows = non_comment_lines text in
  (* Header + one row per size. *)
  check_int "rows" (1 + List.length Paper.sizes) (List.length rows);
  let widths = List.map columns rows in
  List.iter
    (fun w -> check_int "uniform columns" (1 + List.length Paper.figure1) w)
    widths

let test_figure_respects_sizes () =
  let text =
    render (fun ppf ->
        Report.print_figure ~sizes:Paper.figure4_sizes ppf ~name:"Figure 4"
          Paper.figure4)
  in
  check_int "figure 4 rows"
    (1 + List.length Paper.figure4_sizes)
    (List.length (non_comment_lines text))

let test_table1_block () =
  let text = render (fun ppf -> Report.print_table1 ppf) in
  let rows = non_comment_lines text in
  check_int "rows" (1 + List.length Paper.table1_sizes) (List.length rows);
  List.iter (fun row -> check_int "three columns" 3 (columns row)) rows

let test_table2_block () =
  let text = render (fun ppf -> Report.print_table2 ppf) in
  let rows = non_comment_lines text in
  (* Per set: header + 9 sizes. *)
  check_int "rows"
    (List.length Paper.table2_sets * (1 + List.length Paper.table2_sizes))
    (List.length rows);
  (* Every numeric row carries measured and printed columns. *)
  List.iter
    (fun row ->
      if String.contains row '|' then check_int "ten columns" 10 (columns row))
    rows

let test_forensics_block () =
  let text = render (fun ppf -> Report.print_forensics ppf) in
  let rows =
    List.filter
      (fun line -> String.contains line '\t')
      (non_comment_lines text)
  in
  (* Header + 2 sizes x 3 sets. *)
  check_int "rows" 7 (List.length rows)

let test_baselines_block () =
  let text = render (fun ppf -> Report.print_baselines ppf) in
  let rows = non_comment_lines text in
  check_int "rows" 5 (List.length rows);
  List.iter (fun row -> check_int "five columns" 5 (columns row)) rows

let () =
  Alcotest.run "report"
    [
      ( "report",
        [
          case "figure block" test_figure_block;
          case "figure sizes" test_figure_respects_sizes;
          case "table 1 block" test_table1_block;
          slow_case "table 2 block" test_table2_block;
          case "forensics block" test_forensics_block;
          case "baselines block" test_baselines_block;
        ] );
    ]
