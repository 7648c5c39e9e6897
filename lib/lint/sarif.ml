module Json = Crossbar_engine.Json

let version = "2.1.0"

let schema_uri =
  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

let rule_descriptor rule =
  Json.Assoc
    [
      ("id", Json.String (Rule.to_string rule));
      ( "shortDescription",
        Json.Assoc [ ("text", Json.String (Rule.title rule)) ] );
      ( "fullDescription",
        Json.Assoc [ ("text", Json.String (Rule.rationale rule)) ] );
    ]

let result (f : Finding.t) =
  Json.Assoc
    [
      ("ruleId", Json.String (Rule.to_string f.Finding.rule));
      ("level", Json.String "error");
      ("message", Json.Assoc [ ("text", Json.String f.Finding.message) ]);
      ( "locations",
        Json.List
          [
            Json.Assoc
              [
                ( "physicalLocation",
                  Json.Assoc
                    [
                      ( "artifactLocation",
                        Json.Assoc
                          [ ("uri", Json.String f.Finding.file) ] );
                      ( "region",
                        Json.Assoc
                          [
                            ("startLine", Json.Int (max 1 f.Finding.line));
                            (* SARIF columns are 1-based; findings carry the
                               compiler's 0-based column. *)
                            ("startColumn", Json.Int (f.Finding.col + 1));
                          ] );
                    ] );
              ];
          ] );
    ]

let to_json findings =
  (* The driver advertises the full rule catalogue, not just the rules
     with findings: a clean run still documents what was enforced (the
     typed rules included), and viewers resolve ruleId against this list.
     [Syntax] rides along only when a file actually failed to parse. *)
  let rules_present =
    List.sort_uniq Rule.compare
      (Rule.all @ List.map (fun (f : Finding.t) -> f.Finding.rule) findings)
  in
  Json.Assoc
    [
      ("version", Json.String version);
      ("$schema", Json.String schema_uri);
      ( "runs",
        Json.List
          [
            Json.Assoc
              [
                ( "tool",
                  Json.Assoc
                    [
                      ( "driver",
                        Json.Assoc
                          [
                            ("name", Json.String "crossbar-lint");
                            ("informationUri", Json.String "docs/LINT.md");
                            ( "rules",
                              Json.List
                                (List.map rule_descriptor rules_present) );
                          ] );
                    ] );
                ("results", Json.List (List.map result findings));
              ];
          ] );
    ]

let to_string findings = Json.to_string (to_json findings)
