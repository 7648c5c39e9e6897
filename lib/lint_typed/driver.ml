module Lint = Crossbar_lint
module Finding = Lint.Finding
module Rule = Lint.Rule

type stats = {
  files : int;
  missing_cmt : string list;
  errors : (string * string) list;
  extract_s : float;
  capture_s : float;
  graph_s : float;
  effects_s : float;
  capture_iterations : int;
  raise_iterations : int;
  domain_iterations : int;
}

(* [Sys.time] (processor time) is enough for coarse per-stage attribution
   and keeps the library off Unix. *)
let timed f =
  let t0 = Sys.time () in
  let value = f () in
  (value, Sys.time () -. t0)

(* Membership in [config.pool_scope], where R8 applies: a plain prefix
   match, or the files transitively referenced from the scope roots
   (resolved through dune library wrappers). *)
let pool_scope ~(config : Lint.Config.t) sources =
  match config.Lint.Config.pool_scope with
  | Lint.Config.Paths prefixes -> fun path -> Lint.Config.matches path prefixes
  | Lint.Config.Reachable_from root_prefixes ->
      let impls =
        List.filter_map
          (fun (s : Lint.Driver.source) ->
            match s.Lint.Driver.parsed with
            | Lint.Driver.Impl ast ->
                Some (s.Lint.Driver.path, Lint.Deps.refs ast)
            | Lint.Driver.Intf | Lint.Driver.Broken -> None)
          sources
      in
      let read_dune path =
        if Sys.file_exists path && not (Sys.is_directory path) then
          Some (In_channel.with_open_bin path In_channel.input_all)
        else None
      in
      let roots =
        List.filter_map
          (fun (path, _) ->
            if Lint.Config.matches path root_prefixes then Some path else None)
          impls
      in
      Lint.Deps.reachable (Lint.Deps.build ~read_dune impls) ~roots

let run_loaded ~(config : Lint.Config.t) ~cmt_index ~cmt_root
    { Lint.Driver.sources; syntax_findings = _ } =
  let impls =
    List.filter
      (fun (s : Lint.Driver.source) ->
        match s.Lint.Driver.parsed with
        | Lint.Driver.Impl _ -> true
        | Lint.Driver.Intf | Lint.Driver.Broken -> false)
      sources
  in
  let in_scope =
    if Lint.Config.enabled config Rule.R8 then pool_scope ~config impls
    else fun _ -> false
  in
  let session = Typed_rules.session () in
  let missing = ref [] in
  let errors = ref [] in
  let results, extract_s =
    timed @@ fun () ->
    List.filter_map
      (fun (s : Lint.Driver.source) ->
        let path = s.Lint.Driver.path in
        match Cmt_index.find cmt_index path with
        | None ->
            missing := path :: !missing;
            None
        | Some cmt_path -> (
            match
              Typed_rules.analyse ~config ~path ~r8_applies:(in_scope path)
                ~session ~cmt_root ~cmt_path
            with
            | Ok (findings, summary) -> Some (s, findings, summary)
            | Error m ->
                errors := (path, m) :: !errors;
                None))
      impls
  in
  let summaries = List.map (fun (_, _, summary) -> summary) results in
  (* Suppression directives apply to typed findings exactly as to untyped
     ones; R9/R10 findings land on the file holding the write or the
     call site, so its own source text is the one scanned.  The scan also
     backs the capture pass's [guarded=] lookups, so it runs first. *)
  let by_path = Hashtbl.create 64 in
  List.iter
    (fun ((s : Lint.Driver.source), _, _) ->
      Hashtbl.replace by_path s.Lint.Driver.path
        (Lint.Suppress.scan s.Lint.Driver.text))
    results;
  let guarded ~path ~line =
    match Hashtbl.find_opt by_path path with
    | Some suppress -> Lint.Suppress.guarded suppress ~line
    | None -> []
  in
  (* The capture fixpoint serves both typed global rules: R10 consumes
     its escape findings, R9 its locked-lambda facts.  Either rule being
     enabled pays for the (cheap, in-memory) pass. *)
  let capture, capture_s =
    timed @@ fun () ->
    if
      Lint.Config.enabled config Rule.R9
      || Lint.Config.enabled config Rule.R10
    then Some (Capture.analyse ~config ~guarded summaries)
    else None
  in
  let r10 =
    match capture with
    | Some c when Lint.Config.enabled config Rule.R10 -> c.Capture.r10
    | Some _ | None -> []
  in
  let r9, graph_s =
    timed @@ fun () ->
    if Lint.Config.enabled config Rule.R9 then
      let locked_lambdas =
        match capture with
        | Some c -> Some c.Capture.locked_lambdas
        | None -> None
      in
      Callgraph.findings ~config ?locked_lambdas summaries
    else []
  in
  (* Stage three: the raise and float-domain closures behind R12/R13. *)
  let effects, effects_s =
    timed @@ fun () ->
    if
      Lint.Config.enabled config Rule.R12
      || Lint.Config.enabled config Rule.R13
    then Some (Effects.analyse ~config summaries)
    else None
  in
  let effect_findings =
    match effects with
    | Some e -> e.Effects.r12 @ e.Effects.r13
    | None -> []
  in
  let survives (f : Finding.t) =
    match Hashtbl.find_opt by_path f.Finding.file with
    | Some suppress ->
        not
          (Lint.Suppress.active suppress ~rule:f.Finding.rule
             ~line:f.Finding.line)
    | None -> true
  in
  let findings =
    List.concat_map (fun (_, findings, _) -> findings) results
    @ r9 @ r10 @ effect_findings
    |> List.filter survives
    |> List.sort Finding.compare
  in
  ( findings,
    {
      files = List.length impls;
      missing_cmt = List.rev !missing;
      errors = List.rev !errors;
      extract_s;
      capture_s;
      graph_s;
      effects_s;
      capture_iterations =
        (match capture with Some c -> c.Capture.iterations | None -> 0);
      raise_iterations =
        (match effects with Some e -> e.Effects.raise_iterations | None -> 0);
      domain_iterations =
        (match effects with
        | Some e -> e.Effects.domain_iterations
        | None -> 0);
    } )

let run ~config ~cmt_index ~cmt_root paths =
  run_loaded ~config ~cmt_index ~cmt_root (Lint.Driver.load paths)
