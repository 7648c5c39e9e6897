type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

(* ---------- writer ---------- *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* The C formatter [Printf.sprintf "%.17g"] ends up in, called directly:
   the same bytes without the format interpretation and its
   allocations. *)
external format_float : string -> float -> string = "caml_format_float"

let float_literal f =
  (* RFC 8259 has no inf/nan; callers treat [null] as "not measured". *)
  if not (Float.is_finite f) then "null"
  else begin
    let s = format_float "%.17g" f in
    (* Guarantee the token re-parses as a float, not an int. *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"
  end

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_literal f)
  | String s -> escape_string b s
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char b ',';
          write b item)
        items;
      Buffer.add_char b ']'
  | Assoc fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (key, value) ->
          if i > 0 then Buffer.add_char b ',';
          escape_string b key;
          Buffer.add_char b ':';
          write b value)
        fields;
      Buffer.add_char b '}'

let to_string json =
  let b = Buffer.create 256 in
  write b json;
  Buffer.contents b

let rec pp ppf = function
  | (Null | Bool _ | Int _ | Float _ | String _) as atom ->
      Format.pp_print_string ppf (to_string atom)
  | List [] -> Format.pp_print_string ppf "[]"
  | List items ->
      Format.fprintf ppf "@[<v 2>[";
      List.iteri
        (fun i item ->
          if i > 0 then Format.fprintf ppf ",";
          Format.fprintf ppf "@,%a" pp item)
        items;
      Format.fprintf ppf "@]@,]"
  | Assoc [] -> Format.pp_print_string ppf "{}"
  | Assoc fields ->
      Format.fprintf ppf "@[<v 2>{";
      List.iteri
        (fun i (key, value) ->
          if i > 0 then Format.fprintf ppf ",";
          Format.fprintf ppf "@,%s: %a"
            (let b = Buffer.create 16 in
             escape_string b key;
             Buffer.contents b)
            pp value)
        fields;
      Format.fprintf ppf "@]@,}"

(* ---------- parser ---------- *)

exception Malformed of string

let of_string text =
  let n = String.length text in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> fail "expected %C at offset %d, got %C" c !pos got
    | None -> fail "expected %C at offset %d, got end of input" c !pos
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub text !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail "invalid literal at offset %d" !pos
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string at offset %d" !pos
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char b '"'; advance (); loop ()
          | Some '\\' -> Buffer.add_char b '\\'; advance (); loop ()
          | Some '/' -> Buffer.add_char b '/'; advance (); loop ()
          | Some 'n' -> Buffer.add_char b '\n'; advance (); loop ()
          | Some 'r' -> Buffer.add_char b '\r'; advance (); loop ()
          | Some 't' -> Buffer.add_char b '\t'; advance (); loop ()
          | Some 'b' -> Buffer.add_char b '\b'; advance (); loop ()
          | Some 'f' -> Buffer.add_char b '\012'; advance (); loop ()
          | Some 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              let hex = String.sub text (!pos + 1) 4 in
              let code =
                match int_of_string ("0x" ^ hex) with
                | code -> code
                | exception Failure _ ->
                    fail "invalid \\u escape %S at offset %d" hex !pos
              in
              (* Pass BMP code points through as UTF-8. *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char b (Char.chr (0xc0 lor (code lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
              end
              else begin
                Buffer.add_char b (Char.chr (0xe0 lor (code lsr 12)));
                Buffer.add_char b
                  (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
              end;
              pos := !pos + 5;
              loop ()
          | _ -> fail "invalid escape at offset %d" !pos)
      | Some c ->
          Buffer.add_char b c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_number_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while (match peek () with Some c -> is_number_char c | None -> false) do
      advance ()
    done;
    let token = String.sub text start (!pos - start) in
    if token = "" then fail "expected a value at offset %d" start;
    let fractional =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') token
    in
    if fractional then
      match float_of_string_opt token with
      | Some f -> Float f
      | None -> fail "malformed number %S at offset %d" token start
    else
      match int_of_string_opt token with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt token with
          | Some f -> Float f
          | None -> fail "malformed number %S at offset %d" token start)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input at offset %d" !pos
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Assoc []
        end
        else begin
          let field () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value () in
            (key, value)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Assoc (List.rev !fields)
        end
    | Some _ -> parse_number ()
  in
  match
    let value = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage at offset %d" !pos;
    value
  with
  | value -> Ok value
  | exception Malformed message -> Error message

let member key = function
  | Assoc fields -> List.assoc_opt key fields
  | _ -> None
