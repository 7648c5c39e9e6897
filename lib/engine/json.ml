type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

(* ---------- writer ---------- *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let add_string b s =
  Buffer.add_char b '"';
  if String.exists needs_escape s then
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
      s
  else Buffer.add_string b s;
  Buffer.add_char b '"'

(* ---------- floats ---------- *)

(* The C formatter [Printf.sprintf "%.17g"] ends up in, called directly:
   the same bytes without the format interpretation and its
   allocations. *)
external format_float : string -> float -> string = "caml_format_float"

(* The general path: [%.17g], plus [.0] when the token would otherwise
   read back as an int. *)
let add_float_formatted b x =
  let s = format_float "%.17g" x in
  Buffer.add_string b s;
  if not (String.exists (fun c -> c = '.' || c = 'e') s) then
    Buffer.add_string b ".0"

(* The fast path takes [fast_min < |x| < fast_limit].  There the decimal
   exponent [e = floor (log10 |x|)] lies in [min_exponent, max_exponent],
   so [|x| * 10^(16 - e)] scales by an exact double (10^1 .. 10^22) into
   [10^16, 10^17): its integer part holds the 17 significant digits.
   The literal 1e-6 is the double just below 10^-6, whose exponent is
   -7, hence the strict lower bound. *)
let fast_min = 1e-6
let fast_limit = 1e16
let min_exponent = -6
let max_exponent = 15
let digits_low = 10_000_000_000_000_000
let digits_high = 100_000_000_000_000_000

(* [%g] writes [d.ddde-XX] below this decimal exponent, fixed notation
   from it up. *)
let min_fixed_exponent = -4

(* 10^k for k in [1, 22], each an exact double. *)
let exact_pow10 = function
  | 1 -> 1e1
  | 2 -> 1e2
  | 3 -> 1e3
  | 4 -> 1e4
  | 5 -> 1e5
  | 6 -> 1e6
  | 7 -> 1e7
  | 8 -> 1e8
  | 9 -> 1e9
  | 10 -> 1e10
  | 11 -> 1e11
  | 12 -> 1e12
  | 13 -> 1e13
  | 14 -> 1e14
  | 15 -> 1e15
  | 16 -> 1e16
  | 17 -> 1e17
  | 18 -> 1e18
  | 19 -> 1e19
  | 20 -> 1e20
  | 21 -> 1e21
  | 22 -> 1e22
  | k -> invalid_arg (Printf.sprintf "Json.exact_pow10: %d" k)

(* [%.17g] of a finite [x] with [fast_min < |x| < fast_limit], as glibc
   prints it: the exact product [|x| * 10^k = hi + lo] (an FMA recovers
   [lo]) is rounded to an integer, ties to even. *)
let add_float_fast b x =
  let ax = Float.abs x in
  let e =
    ref
      (Int.max min_exponent
         (Int.min max_exponent (int_of_float (Float.floor (Float.log10 ax)))))
  in
  let digits = ref 0 and lo = ref 0. and floor_lo = ref 0. in
  let settled = ref false in
  (* log10 can miss by one next to a power of ten; step towards the
     exponent that puts the scaled value in [10^16, 10^17). *)
  while not !settled do
    let scale = exact_pow10 (16 - !e) in
    let hi = ax *. scale in
    lo := Float.fma ax scale (-.hi);
    floor_lo := Float.floor !lo;
    (* [hi] is an integer (it is at least 10^16 > 2^53), so
       [floor (hi + lo) = hi + floor lo]. *)
    digits := int_of_float hi + int_of_float !floor_lo;
    if !digits < digits_low then decr e
    else if !digits >= digits_high then incr e
    else settled := true
  done;
  let half = !floor_lo +. 0.5 in
  (* lint: disable=R7 — an exact tie rounds to even, as glibc does *)
  if !lo > half || (Float.equal !lo half && !digits land 1 = 1) then
    incr digits;
  if !digits = digits_high then begin
    digits := digits_low;
    incr e
  end;
  (* Strip trailing zeros, then spell the [n] digits left. *)
  let n = ref 17 in
  while !digits mod 10 = 0 do
    digits := !digits / 10;
    decr n
  done;
  let n = !n and e = !e in
  let text = Bytes.create n in
  for i = n - 1 downto 0 do
    Bytes.unsafe_set text i (Char.unsafe_chr (48 + (!digits mod 10)));
    digits := !digits / 10
  done;
  if x < 0. then Buffer.add_char b '-';
  if e < min_fixed_exponent then begin
    (* d[.ddd]e-0X: here e is -5 or -6. *)
    Buffer.add_char b (Bytes.get text 0);
    if n > 1 then begin
      Buffer.add_char b '.';
      Buffer.add_subbytes b text 1 (n - 1)
    end;
    Buffer.add_string b "e-0";
    Buffer.add_char b (Char.unsafe_chr (48 - e))
  end
  else if e < 0 then begin
    Buffer.add_string b "0.";
    for _ = 2 to -e do
      Buffer.add_char b '0'
    done;
    Buffer.add_subbytes b text 0 n
  end
  else if n <= e + 1 then begin
    (* Integral: the digits, the zeros they stand for, and [.0]. *)
    Buffer.add_subbytes b text 0 n;
    for _ = n to e do
      Buffer.add_char b '0'
    done;
    Buffer.add_string b ".0"
  end
  else begin
    Buffer.add_subbytes b text 0 (e + 1);
    Buffer.add_char b '.';
    Buffer.add_subbytes b text (e + 1) (n - e - 1)
  end

let add_float b x =
  (* RFC 8259 has no inf/nan; callers treat [null] as "not measured". *)
  if not (Float.is_finite x) then Buffer.add_string b "null"
  else begin
    let ax = Float.abs x in
    if ax > fast_min && ax < fast_limit then add_float_fast b x
    else add_float_formatted b x
  end

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> add_float b f
  | String s -> add_string b s
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
          add_string b key;
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
             add_string b key;
             Buffer.contents b)
            pp value)
        fields;
      Format.fprintf ppf "@]@,}"

(* ---------- numbers ---------- *)

let is_number_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let number_end text start =
  let n = String.length text in
  let i = ref start in
  while !i < n && is_number_char (String.unsafe_get text !i) do
    incr i
  done;
  !i

let is_digit c = c >= '0' && c <= '9'

(* Clinger's fast path: an integer mantissa below 2^53 is an exact
   double, and so is 10^k for |k| <= 22, so one IEEE multiply or divide
   rounds [mantissa * 10^k] correctly, exactly as strtod does. *)
let max_fast_mantissa = 1 lsl 53
let max_fast_exponent = 22

(* Significant digits (leading zeros aside) that an int holds exactly:
   below 10^18, so a sign and this many digits never overflow. *)
let max_exact_digits = 18

(* Exponent digits saturate here: far past any exponent a double can
   carry, however many fraction digits the token has. *)
let exponent_cap = 1_000_000_000

(* The general path, through a copy of the token: [Int] when it has no
   [.], [e] or [E] and [int_of_string_opt] takes it, otherwise [Float]
   when [float_of_string_opt] does. *)
let number_of_copy text start stop =
  let token = String.sub text start (stop - start) in
  let as_float () =
    match float_of_string_opt token with
    | Some f -> Some (Float f)
    | None -> None
  in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') token then
    as_float ()
  else
    match int_of_string_opt token with
    | Some i -> Some (Int i)
    | None -> as_float ()

(* One pass over the token.  When it has strict decimal form,
   [sign? (digits [. digits*] | . digits) ([eE] sign? digits)?], with
   at most [max_exact_digits] significant digits, the int or the double
   comes straight from its digits (the double only on Clinger's fast
   path); everything else goes through [number_of_copy]. *)
let number text start stop =
  let negative = stop > start && String.unsafe_get text start = '-' in
  let i =
    ref
      (if stop > start && (negative || String.unsafe_get text start = '+')
       then start + 1
       else start)
  in
  let value = ref 0 and digits = ref 0 and significant = ref 0 in
  let fraction = ref 0 and point = ref false and in_mantissa = ref true in
  while !in_mantissa && !i < stop do
    let c = String.unsafe_get text !i in
    if is_digit c then begin
      incr digits;
      if !point then incr fraction;
      if !value > 0 || c <> '0' then begin
        incr significant;
        if !significant <= max_exact_digits then
          value := (!value * 10) + (Char.code c - 48)
      end;
      incr i
    end
    else if c = '.' && not !point then begin
      point := true;
      incr i
    end
    else in_mantissa := false
  done;
  let exponent = ref 0 and well_formed = ref (!digits > 0) in
  let has_exponent = !well_formed && !i < stop in
  if has_exponent then begin
    (match String.unsafe_get text !i with
    | 'e' | 'E' -> incr i
    | _ -> well_formed := false);
    let exponent_negative = !i < stop && String.unsafe_get text !i = '-' in
    if !i < stop && (exponent_negative || String.unsafe_get text !i = '+')
    then incr i;
    if !i >= stop then well_formed := false;
    while !well_formed && !i < stop do
      let c = String.unsafe_get text !i in
      if is_digit c then begin
        if !exponent < exponent_cap then
          exponent := (!exponent * 10) + (Char.code c - 48);
        incr i
      end
      else well_formed := false
    done;
    if exponent_negative then exponent := - !exponent
  end;
  let exact = !well_formed && !significant <= max_exact_digits in
  let scale = !exponent - !fraction in
  if exact && not (!point || has_exponent) then
    Some (Int (if negative then - !value else !value))
  else if
    exact && !value < max_fast_mantissa
    && scale >= -max_fast_exponent
    && scale <= max_fast_exponent
  then begin
    let m = float_of_int !value in
    let magnitude =
      if scale = 0 then m
      else if scale > 0 then m *. exact_pow10 scale
      else m /. exact_pow10 (-scale)
    in
    Some (Float (if negative then -.magnitude else magnitude))
  end
  else number_of_copy text start stop

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
    pos := number_end text start;
    if !pos = start then fail "expected a value at offset %d" start;
    match number text start !pos with
    | Some value -> value
    | None ->
        fail "malformed number %S at offset %d"
          (String.sub text start (!pos - start))
          start
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
