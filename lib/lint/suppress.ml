type t = {
  file_rules : Rule.id list;
  line_rules : (int, Rule.id list) Hashtbl.t;
  guard_lines : (int, string list) Hashtbl.t;
}

let empty () =
  {
    file_rules = [];
    line_rules = Hashtbl.create 4;
    guard_lines = Hashtbl.create 4;
  }

let marker = "lint:"

let parse_ids text =
  String.split_on_char ',' text |> List.filter_map Rule.of_string

let parse_names text =
  String.split_on_char ',' text
  |> List.filter_map (fun name ->
         let name = String.trim name in
         if String.equal name "" then None else Some name)

(* A directive is a whitespace-delimited word after the "lint:" marker;
   anything that is not a recognised directive (the free-form reason) is
   ignored. *)
let directives_of_line line =
  match
    let rec find from =
      match String.index_from_opt line from 'l' with
      | None -> None
      | Some i ->
          if
            i + String.length marker <= String.length line
            && String.equal (String.sub line i (String.length marker)) marker
          then Some (i + String.length marker)
          else find (i + 1)
    in
    find 0
  with
  | None -> []
  | Some start ->
      String.sub line start (String.length line - start)
      |> String.split_on_char ' '
      |> List.concat_map (String.split_on_char '\t')
      |> List.filter_map (fun word ->
             let word = String.trim word in
             if String.starts_with ~prefix:"disable-file=" word then
               Some
                 (`File
                   (parse_ids
                      (String.sub word 13 (String.length word - 13))))
             else if String.starts_with ~prefix:"disable=" word then
               Some
                 (`Line
                   (parse_ids (String.sub word 8 (String.length word - 8))))
             else if String.equal word "domain-safe" then
               Some (`Line [ Rule.R8; Rule.R9 ])
             else if String.starts_with ~prefix:"guarded=" word then
               Some
                 (`Guard
                   (parse_names (String.sub word 8 (String.length word - 8))))
             else None)

let scan text =
  let file_rules = ref [] in
  let line_rules = Hashtbl.create 4 in
  let guard_lines = Hashtbl.create 4 in
  let add table n values =
    let existing = Option.value ~default:[] (Hashtbl.find_opt table n) in
    Hashtbl.replace table n (values @ existing)
  in
  List.iteri
    (fun i line ->
      let n = i + 1 in
      List.iter
        (function
          | `File rules -> file_rules := rules @ !file_rules
          | `Line rules ->
              (* Cover both trailing comments and comment-above style. *)
              add line_rules n rules;
              add line_rules (n + 1) rules
          | `Guard names ->
              add guard_lines n names;
              add guard_lines (n + 1) names)
        (directives_of_line line))
    (String.split_on_char '\n' text);
  { file_rules = !file_rules; line_rules; guard_lines }

let active t ~rule ~line =
  rule <> Rule.Syntax
  && (List.mem rule t.file_rules
     ||
     match Hashtbl.find_opt t.line_rules line with
     | Some rules -> List.mem rule rules
     | None -> false)

let guarded t ~line =
  Option.value ~default:[] (Hashtbl.find_opt t.guard_lines line)
