module Json = Crossbar_engine.Json

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("p50_ms", "ms");
    ("p90_ms", "ms");
    ("rss_peak_mb", "MB");
  ]

let per_layer =
  [
    ("protocol.parse_us", "us");
    ("protocol.serialize_us", "us");
    ("batcher.execute_ms", "ms");
    ("batcher.batch_size", "count");
    ("batcher.groups", "count");
    ("server.overhead_ms", "ms");
    ("registry.hits", "count");
    ("registry.misses", "count");
    ("registry.evictions", "count");
    ("registry.warm_install_ratio", "ratio");
    ("factor_tree.build_ms", "ms");
    ("factor_tree.delta_ms", "ms");
    ("factor_tree.combines_per_delta", "count");
    ("revenue.shadow_costs_us", "us");
    ("kernel.combine_us", "us");
    ("kernel.terms_per_s", "terms/s");
    ("kernel.bytes_moved", "bytes");
    ("kernel.banded_share", "ratio");
    ("band_pool.dispatch_us", "us");
    ("pool.run_ms", "ms");
    ("arena.created", "count");
    ("arena.reused", "count");
    ("arena.reuse_ratio", "ratio");
    ("sweep.incremental_ratio", "ratio");
    ("sweep.cache_hit_ratio", "ratio");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections", "count");
    ("trace.reconcile_ratio", "ratio");
    ("trace.overhead_ratio", "ratio");
  ]

let result_line ~correct ~attempted ~failed ~catalogue values =
  List.iter
    (fun (name, value) ->
      if not (List.mem_assoc name catalogue) then
        invalid_arg (Printf.sprintf "Schema.result_line: unknown metric %S" name);
      if not (Float.is_finite value) then
        invalid_arg
          (Printf.sprintf "Schema.result_line: %s is not finite (%g)" name value))
    values;
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.filter (fun (n, _) -> String.equal n name) values with
        | [ (_, value) ] ->
            ( name,
              Json.Assoc [ ("value", Json.Float value); ("unit", Json.String unit_) ]
            )
        | [] -> invalid_arg (Printf.sprintf "Schema.result_line: %s missing" name)
        | _ :: _ :: _ ->
            invalid_arg (Printf.sprintf "Schema.result_line: %s given twice" name))
      catalogue
  in
  Json.to_string
    (Json.Assoc
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("metrics", Json.Assoc metrics);
       ])

let ( let* ) = Result.bind

let check_metric catalogue (name, value) =
  match List.assoc_opt name catalogue with
  | None -> Error (Printf.sprintf "unexpected metric %S" name)
  | Some expected -> (
      match value with
      | Json.Assoc [ ("value", (Json.Float _ | Json.Int _)); ("unit", Json.String u) ]
        when String.equal u expected ->
          Ok ()
      | _ -> Error (Printf.sprintf "metric %S: want {value: number, unit: %S}" name expected))

let check_line ~catalogue line =
  let* json = Json.of_string line in
  match json with
  | Json.Assoc
      [
        ("correct", Json.Bool _);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ("metrics", Json.Assoc metrics);
      ] ->
      let* () =
        if attempted >= 1 && failed >= 0 && failed <= attempted then Ok ()
        else Error (Printf.sprintf "attempted=%d failed=%d" attempted failed)
      in
      let* () =
        List.fold_left
          (fun acc metric -> let* () = acc in check_metric catalogue metric)
          (Ok ()) metrics
      in
      let names = List.sort compare (List.map fst metrics) in
      if names = List.sort compare (List.map fst catalogue) then Ok ()
      else Error "metric names differ from the catalogue"
  | _ -> Error "want exactly the keys correct, attempted, failed, metrics"
