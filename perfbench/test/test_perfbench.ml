(* Tests for the benchmark's own helpers: order statistics, span self
   time, and the result-line schema (including its agreement with
   BENCHMARK.json). *)

open Perfbench
module Json = Crossbar_engine.Json

let close = Alcotest.float 1e-12

(* ---------- Stats ---------- *)

let quantile_interpolates () =
  let xs = [| 4.; 1.; 3.; 2. |] in
  Alcotest.check close "median" 2.5 (Stats.median xs);
  Alcotest.check close "q=0" 1. (Stats.quantile xs 0.);
  Alcotest.check close "q=1" 4. (Stats.quantile xs 1.);
  Alcotest.check close "q=0.9" 3.7 (Stats.quantile xs 0.9);
  Alcotest.(check (array (float 0.))) "input untouched" [| 4.; 1.; 3.; 2. |] xs

let quantile_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.quantile: no samples") (fun () ->
      ignore (Stats.quantile [||] 0.5));
  match Stats.quantile [| 1. |] 1.5 with
  | _ -> Alcotest.fail "q outside [0, 1] accepted"
  | exception Invalid_argument _ -> ()

(* Expected values from Python: statistics.quantiles(xs, n=4). *)
let quartiles_match_python () =
  let check name xs (a, b, c) =
    let q1, q2, q3 = Stats.quartiles xs in
    Alcotest.check close (name ^ " q1") a q1;
    Alcotest.check close (name ^ " q2") b q2;
    Alcotest.check close (name ^ " q3") c q3
  in
  check "1..10" (Array.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "1..5" [| 5.; 4.; 3.; 2.; 1. |] (1.5, 3., 4.5);
  check "two samples" [| 1.; 2. |] (0.75, 1.5, 2.25);
  check "uneven" [| 10.; 12.; 11.; 30.; 13.; 9. |] (9.75, 11.5, 17.25)

let iqr_share_is_relative () =
  let xs = Array.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "1..10" ((8.25 -. 2.75) /. 5.5) (Stats.iqr_share xs);
  Alcotest.check close "scale free" (Stats.iqr_share xs)
    (Stats.iqr_share (Array.map (fun x -> 1000. *. x) xs));
  Alcotest.check close "constant" 0. (Stats.iqr_share [| 3.; 3.; 3. |])

(* ---------- Spans ---------- *)

let span ?parent id name start_ns stop_ns =
  { Spans.id; name; parent; window = 0; start_ns; stop_ns }

let self_of spans id =
  snd (List.find (fun ((s : Spans.span), _) -> s.Spans.id = id) (Spans.self_ns spans))

let self_time_subtracts_children () =
  let spans =
    [
      span 0 "window" 0 100;
      span ~parent:0 1 "parse" 10 30;
      span ~parent:0 2 "execute" 20 50;
      (* overlaps its sibling: [10, 50] counts once *)
      span ~parent:0 3 "serialize" 90 120;
      (* clipped to the parent's end: 10 *)
      span ~parent:2 4 "inner" 25 45;
      (* a grandchild: not the window's child *)
    ]
  in
  Alcotest.(check int) "window" 50 (self_of spans 0);
  Alcotest.(check int) "parse" 20 (self_of spans 1);
  Alcotest.(check int) "execute" 10 (self_of spans 2);
  Alcotest.(check int) "serialize" 30 (self_of spans 3);
  Alcotest.(check int) "leaf" 20 (self_of spans 4)

let self_times_sum_to_root () =
  let spans =
    [
      span 0 "window" 0 1000;
      span ~parent:0 1 "a" 100 400;
      span ~parent:0 2 "b" 400 900;
      span ~parent:2 3 "c" 500 600;
    ]
  in
  let total = List.fold_left (fun acc (_, self) -> acc + self) 0 (Spans.self_ns spans) in
  Alcotest.(check int) "self times partition the root" 1000 total;
  Alcotest.(check (list (triple string int int)))
    "totals by name"
    [ ("a", 300, 1); ("b", 400, 1); ("c", 100, 1); ("window", 200, 1) ]
    (Spans.totals spans)

let record_nests () =
  let t = Spans.create () in
  let result =
    Spans.record t ~name:"outer" ~window:7 (fun outer ->
        Spans.record t ~name:"inner" ~window:7 ~parent:outer (fun _ -> 42))
  in
  Alcotest.(check int) "result" 42 result;
  match Spans.spans t with
  | [ inner; outer ] ->
      Alcotest.(check string) "inner first" "inner" inner.Spans.name;
      Alcotest.(check (option int)) "parent" (Some outer.Spans.id) inner.Spans.parent;
      Alcotest.(check bool) "nested interval" true
        (outer.Spans.start_ns <= inner.Spans.start_ns
        && inner.Spans.stop_ns <= outer.Spans.stop_ns);
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' (Spans.to_jsonl (Spans.spans t)))
      in
      Alcotest.(check int) "one line per span" 2 (List.length lines);
      List.iter
        (fun line ->
          match Json.of_string line with
          | Ok json ->
              Alcotest.(check bool) "window field" true
                (Json.member "window" json = Some (Json.Int 7))
          | Error e -> Alcotest.fail e)
        lines
  | spans -> Alcotest.failf "want 2 spans, got %d" (List.length spans)

(* ---------- Schema ---------- *)

let values catalogue = List.mapi (fun i (name, _) -> (name, 1.5 +. float_of_int i)) catalogue

let result_round_trips () =
  List.iter
    (fun catalogue ->
      let line =
        Schema.result_line ~correct:true ~attempted:10 ~failed:0 ~catalogue (values catalogue)
      in
      Alcotest.(check (result unit string)) "valid" (Ok ()) (Schema.check_line ~catalogue line);
      Alcotest.(check bool) "single line" false (String.contains line '\n'))
    [ Schema.end_to_end; Schema.per_layer ]

let result_rejects_bad_metrics () =
  let catalogue = Schema.end_to_end in
  let render v = Schema.result_line ~correct:true ~attempted:1 ~failed:0 ~catalogue v in
  let raises name v =
    match render v with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  raises "missing" (List.tl (values catalogue));
  raises "unknown" (("bogus", 1.) :: values catalogue);
  raises "duplicate" (List.hd (values catalogue) :: values catalogue);
  raises "nan" (("p50_ms", Float.nan) :: List.remove_assoc "p50_ms" (values catalogue))

(* [line] with the first occurrence of [sub] replaced by [by]. *)
let replace_first line ~sub ~by =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length line then Alcotest.failf "%S not in %S" sub line
    else if String.equal (String.sub line i n) sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub line 0 i ^ by ^ String.sub line (i + n) (String.length line - i - n)

let check_line_rejects () =
  let catalogue = Schema.end_to_end in
  let bad name line =
    match Schema.check_line ~catalogue line with
    | Ok () -> Alcotest.failf "%s accepted" name
    | Error _ -> ()
  in
  let render ~attempted ~failed =
    Schema.result_line ~correct:true ~attempted ~failed ~catalogue (values catalogue)
  in
  let good = render ~attempted:3 ~failed:1 in
  Alcotest.(check (result unit string)) "good" (Ok ()) (Schema.check_line ~catalogue good);
  (match Schema.check_line ~catalogue:Schema.per_layer good with
  | Ok () -> Alcotest.fail "end-to-end line passed as per-layer"
  | Error _ -> ());
  bad "extra key" (replace_first good ~sub:"\"metrics\"" ~by:"\"x\":1,\"metrics\"");
  bad "missing key" (replace_first good ~sub:"\"correct\":true," ~by:"");
  bad "failed > attempted" (render ~attempted:1 ~failed:2);
  bad "zero attempted" (render ~attempted:0 ~failed:0);
  bad "wrong unit" (replace_first good ~sub:"\"unit\":\"s\"" ~by:"\"unit\":\"h\"");
  bad "not JSON" "correct=true"

(* BENCHMARK.json must list exactly the metrics the runs print, with the
   same units and in the same order. *)
let catalogue_matches_benchmark_json () =
  let json =
    match Json.of_string (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all) with
    | Ok json -> json
    | Error e -> Alcotest.fail e
  in
  let listed key =
    match Json.member key json with
    | Some (Json.List entries) ->
        List.map
          (fun entry ->
            match (Json.member "name" entry, Json.member "unit" entry) with
            | Some (Json.String name), Some (Json.String unit_) -> (name, unit_)
            | _ -> Alcotest.failf "%s entry without name/unit" key)
          entries
    | _ -> Alcotest.failf "BENCHMARK.json has no %s list" key
  in
  let pair = Alcotest.(list (pair string string)) in
  Alcotest.check pair "end_to_end" Schema.end_to_end (listed "end_to_end");
  Alcotest.check pair "per_layer" Schema.per_layer (listed "per_layer")

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "quantile interpolates" `Quick quantile_interpolates;
          Alcotest.test_case "quantile rejects" `Quick quantile_rejects;
          Alcotest.test_case "quartiles match python" `Quick quartiles_match_python;
          Alcotest.test_case "iqr share" `Quick iqr_share_is_relative;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time subtracts children" `Quick self_time_subtracts_children;
          Alcotest.test_case "self times sum to root" `Quick self_times_sum_to_root;
          Alcotest.test_case "record nests" `Quick record_nests;
        ] );
      ( "schema",
        [
          Alcotest.test_case "result round trips" `Quick result_round_trips;
          Alcotest.test_case "result rejects bad metrics" `Quick result_rejects_bad_metrics;
          Alcotest.test_case "check_line rejects" `Quick check_line_rejects;
          Alcotest.test_case "catalogue matches BENCHMARK.json" `Quick
            catalogue_matches_benchmark_json;
        ] );
    ]
