module Json = Crossbar_engine.Json

type pool_scope = Reachable_from of string list | Paths of string list

type t = {
  rules : Rule.id list;
  numerics_prefixes : string list;
  ordering_literals : float list;
  r2_prefixes : string list;
  r2_allowlist : string list;
  r2_banned : string list;
  pool_scope : pool_scope;
  r4_prefixes : string list;
  stdout_names : string list;
  r6_prefixes : string list;
  r8_sanctioned_types : string list;
  r8_mutable_types : string list;
  r9_roots : string list;
  r9_lock_wrappers : string list;
  r10_sinks : string list;
  r10_guarded_types : string list;
  r12_boundaries : string list;
  r13_log_producers : string list;
  r13_linear_producers : string list;
  r13_mantissa_producers : string list;
  doc_coverage_threshold : float;
  doc_coverage_paths : string list;
}

let default =
  {
    rules = Rule.all;
    numerics_prefixes = [ "lib/numerics" ];
    ordering_literals = [ 0.; 1.; -1. ];
    r2_prefixes = [ "lib/core"; "lib/markov" ];
    r2_allowlist = [];
    r2_banned =
      [
        "exp"; "log"; "log1p"; "expm1";
        "Float.exp"; "Float.log"; "Float.log1p"; "Float.expm1";
        "Stdlib.exp"; "Stdlib.log"; "Stdlib.log1p"; "Stdlib.expm1";
      ];
    pool_scope = Reachable_from [ "lib/engine" ];
    r4_prefixes = [ "lib" ];
    stdout_names =
      [
        "print_char"; "print_string"; "print_bytes"; "print_int";
        "print_float"; "print_endline"; "print_newline"; "stdout";
        "Printf.printf"; "Format.printf"; "Format.print_string";
        "Format.print_int"; "Format.print_float"; "Format.print_newline";
        "Format.print_space"; "Format.print_cut"; "Format.print_flush";
        "Format.std_formatter"; "Stdlib.stdout"; "Stdlib.print_string";
        "Stdlib.print_endline"; "Stdlib.print_newline"; "Stdlib.print_int";
        "Stdlib.print_float"; "Stdlib.print_char";
      ];
    r6_prefixes = [ "lib" ];
    r8_sanctioned_types =
      [
        "Stdlib.Atomic.t"; "Stdlib__Atomic.t"; "Atomic.t";
        "Stdlib.Mutex.t"; "Stdlib__Mutex.t"; "Mutex.t";
        "Stdlib.Condition.t"; "Stdlib__Condition.t"; "Condition.t";
        "Stdlib.Semaphore.Counting.t"; "Stdlib__Semaphore.Counting.t";
        "Stdlib.Domain.DLS.key"; "Stdlib__Domain.DLS.key"; "Domain.DLS.key";
      ];
    r8_mutable_types =
      [
        "Stdlib.Hashtbl.t"; "Stdlib__Hashtbl.t"; "Hashtbl.t";
        "Stdlib.Queue.t"; "Stdlib__Queue.t"; "Queue.t";
        "Stdlib.Stack.t"; "Stdlib__Stack.t"; "Stack.t";
        "Stdlib.Buffer.t"; "Stdlib__Buffer.t"; "Buffer.t";
        "Stdlib.Weak.t"; "Stdlib__Weak.t"; "Weak.t";
        "Stdlib.Random.State.t"; "Stdlib__Random.State.t"; "Random.State.t";
      ];
    r9_roots = [ "lib/engine" ];
    r9_lock_wrappers = [ "Mutex.protect"; "Stdlib.Mutex.protect"; "locked" ];
    r10_sinks =
      [
        "Pool.run"; "Band_pool.run"; "Band_pool.run_tasks"; "Domain.spawn";
        "Domain.spawn_with";
      ];
    r10_guarded_types =
      [
        "Crossbar_engine.Telemetry.t"; "Crossbar_engine__Telemetry.t";
        "Telemetry.t";
        "Crossbar_engine.Cache.Memo.t"; "Crossbar_engine__Cache.Memo.t";
        "Cache.Memo.t"; "Memo.t";
      ];
    r12_boundaries =
      [
        "Mutex.protect"; "Stdlib.Mutex.protect"; "locked"; "Pool.run";
        "Band_pool.run"; "Band_pool.run_tasks"; "Domain.spawn";
        "Domain.spawn_with";
      ];
    r13_log_producers =
      [
        "Logspace.of_float"; "Logspace.of_log"; "Logspace.to_log";
        "Logspace.log_checked"; "Logspace.mul"; "Logspace.div";
        "Logspace.add"; "Logspace.sub"; "Logspace.sum";
        "Convolution.log_g"; "Convolution.log_normalization";
      ];
    r13_linear_producers =
      [ "Logspace.to_float"; "Logspace.exp_log"; "Logspace.ratio" ];
    r13_mantissa_producers = [ "Lattice.get"; "Lattice.unsafe_get" ];
    doc_coverage_threshold = 0.9;
    doc_coverage_paths = [ "lib/lint"; "lib/lint_typed"; "lib/serve" ];
  }

let enabled t rule = rule = Rule.Syntax || List.mem rule t.rules

let normalize path =
  let path =
    if String.length path > 2 && String.sub path 0 2 = "./" then
      String.sub path 2 (String.length path - 2)
    else path
  in
  let absolute = String.length path > 0 && path.[0] = '/' in
  let body =
    String.concat "/" (String.split_on_char '/' path |> List.filter (( <> ) ""))
  in
  if absolute then "/" ^ body else body

let matches path prefixes =
  let path = normalize path in
  List.exists
    (fun prefix ->
      let prefix = normalize prefix in
      String.equal path prefix
      || String.starts_with ~prefix:(prefix ^ "/") path)
    prefixes

(* ---------- JSON (de)serialisation ---------- *)

let strings items = Json.List (List.map (fun s -> Json.String s) items)

let to_json t =
  let scope_kind, scope_prefixes =
    match t.pool_scope with
    | Reachable_from prefixes -> ("reachable_from", prefixes)
    | Paths prefixes -> ("paths", prefixes)
  in
  Json.Assoc
    [
      ("schema", Json.String "crossbar-lint-config/1");
      ( "rules",
        Json.List
          (List.map (fun r -> Json.String (Rule.to_string r)) t.rules) );
      ("numerics_prefixes", strings t.numerics_prefixes);
      ( "ordering_literals",
        Json.List (List.map (fun v -> Json.Float v) t.ordering_literals) );
      ("r2_prefixes", strings t.r2_prefixes);
      ("r2_allowlist", strings t.r2_allowlist);
      ("r2_banned", strings t.r2_banned);
      ( "pool_scope",
        Json.Assoc
          [
            ("kind", Json.String scope_kind);
            ("prefixes", strings scope_prefixes);
          ] );
      ("r4_prefixes", strings t.r4_prefixes);
      ("stdout_names", strings t.stdout_names);
      ("r6_prefixes", strings t.r6_prefixes);
      ("r8_sanctioned_types", strings t.r8_sanctioned_types);
      ("r8_mutable_types", strings t.r8_mutable_types);
      ("r9_roots", strings t.r9_roots);
      ("r9_lock_wrappers", strings t.r9_lock_wrappers);
      ("r10_sinks", strings t.r10_sinks);
      ("r10_guarded_types", strings t.r10_guarded_types);
      ("r12_boundaries", strings t.r12_boundaries);
      ("r13_log_producers", strings t.r13_log_producers);
      ("r13_linear_producers", strings t.r13_linear_producers);
      ("r13_mantissa_producers", strings t.r13_mantissa_producers);
      ( "doc_coverage",
        Json.Assoc
          [
            ("threshold", Json.Float t.doc_coverage_threshold);
            ("paths", strings t.doc_coverage_paths);
          ] );
    ]

let of_json json =
  let ( let* ) = Result.bind in
  let field key =
    match Json.member key json with
    | Some value -> Ok value
    | None -> Error (Printf.sprintf "config: missing field %S" key)
  in
  let string_items what = function
    | Json.List items ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            match item with
            | Json.String s -> Ok (s :: acc)
            | _ -> Error (Printf.sprintf "config: %s must hold strings" what))
          (Ok []) items
        |> Result.map List.rev
    | _ -> Error (Printf.sprintf "config: %s must be a list" what)
  in
  let string_list key =
    let* value = field key in
    string_items (Printf.sprintf "%S" key) value
  in
  let* schema = field "schema" in
  let* () =
    match schema with
    | Json.String "crossbar-lint-config/1" -> Ok ()
    | _ -> Error "config: missing schema \"crossbar-lint-config/1\""
  in
  let* rule_names = string_list "rules" in
  let* rules =
    List.fold_left
      (fun acc name ->
        let* acc = acc in
        match Rule.of_string name with
        | Some rule -> Ok (rule :: acc)
        | None -> Error (Printf.sprintf "config: unknown rule id %S" name))
      (Ok []) rule_names
    |> Result.map List.rev
  in
  let* numerics_prefixes = string_list "numerics_prefixes" in
  let* ordering_literals =
    let* value = field "ordering_literals" in
    match value with
    | Json.List items ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            match item with
            | Json.Float v -> Ok (v :: acc)
            | Json.Int v -> Ok (float_of_int v :: acc)
            | _ -> Error "config: \"ordering_literals\" must hold numbers")
          (Ok []) items
        |> Result.map List.rev
    | _ -> Error "config: \"ordering_literals\" must be a list"
  in
  let* r2_prefixes = string_list "r2_prefixes" in
  let* r2_allowlist = string_list "r2_allowlist" in
  let* r2_banned = string_list "r2_banned" in
  let* pool_scope =
    let* value = field "pool_scope" in
    let* kind =
      match Json.member "kind" value with
      | Some (Json.String kind) -> Ok kind
      | _ -> Error "config: \"pool_scope\" needs a string \"kind\""
    in
    let* prefixes =
      match Json.member "prefixes" value with
      | Some items -> string_items "\"pool_scope\" prefixes" items
      | None -> Error "config: \"pool_scope\" needs a \"prefixes\" list"
    in
    match kind with
    | "reachable_from" -> Ok (Reachable_from prefixes)
    | "paths" -> Ok (Paths prefixes)
    | other ->
        Error
          (Printf.sprintf
             "config: \"pool_scope\" kind %S is neither \"reachable_from\" nor \
              \"paths\""
             other)
  in
  let* r4_prefixes = string_list "r4_prefixes" in
  let* stdout_names = string_list "stdout_names" in
  let* r6_prefixes = string_list "r6_prefixes" in
  let* r8_sanctioned_types = string_list "r8_sanctioned_types" in
  let* r8_mutable_types = string_list "r8_mutable_types" in
  let* r9_roots = string_list "r9_roots" in
  let* r9_lock_wrappers = string_list "r9_lock_wrappers" in
  let* r10_sinks = string_list "r10_sinks" in
  let* r10_guarded_types = string_list "r10_guarded_types" in
  let* r12_boundaries = string_list "r12_boundaries" in
  let* r13_log_producers = string_list "r13_log_producers" in
  let* r13_linear_producers = string_list "r13_linear_producers" in
  let* r13_mantissa_producers = string_list "r13_mantissa_producers" in
  let* doc_coverage_threshold, doc_coverage_paths =
    let* value = field "doc_coverage" in
    let* threshold =
      match Json.member "threshold" value with
      | Some (Json.Float v) -> Ok v
      | Some (Json.Int v) -> Ok (float_of_int v)
      | _ -> Error "config: \"doc_coverage\" needs a number \"threshold\""
    in
    let* paths =
      match Json.member "paths" value with
      | Some items -> string_items "\"doc_coverage\" paths" items
      | None -> Error "config: \"doc_coverage\" needs a \"paths\" list"
    in
    Ok (threshold, paths)
  in
  Ok
    {
      rules;
      numerics_prefixes;
      ordering_literals;
      r2_prefixes;
      r2_allowlist;
      r2_banned;
      pool_scope;
      r4_prefixes;
      stdout_names;
      r6_prefixes;
      r8_sanctioned_types;
      r8_mutable_types;
      r9_roots;
      r9_lock_wrappers;
      r10_sinks;
      r10_guarded_types;
      r12_boundaries;
      r13_log_producers;
      r13_linear_producers;
      r13_mantissa_producers;
      doc_coverage_threshold;
      doc_coverage_paths;
    }

let load_file path =
  if not (Sys.file_exists path) then Ok default
  else
    let ic = open_in_bin path in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Json.of_string text with
    | Error message -> Error (Printf.sprintf "%s: %s" path message)
    | Ok json -> (
        match of_json json with
        | Error message -> Error (Printf.sprintf "%s: %s" path message)
        | Ok config -> Ok config)
