open Parsetree

let line_col (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

let rec flatten = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (prefix, s) -> flatten prefix @ [ s ]
  | Longident.Lapply (f, _) -> flatten f

let dotted lid = String.concat "." (flatten lid)

let ordering_ops = [ "<"; ">"; "<="; ">=" ]

(* The parser folds unary minus into the literal, but handle an explicit
   application of [~-.] as well so [x > -. 1.5] does not slip through. *)
let float_literal expr =
  match expr.pexp_desc with
  | Pexp_constant (Pconst_float (text, None)) -> float_of_string_opt text
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Lident ("~-." | "~-"); _ }; _ },
        [ (Nolabel, { pexp_desc = Pexp_constant (Pconst_float (text, None)); _ }) ] )
    ->
      Option.map Float.neg (float_of_string_opt text)
  | _ -> None

let check ~(config : Config.t) ~path structure =
  let findings = ref [] in
  let add rule loc message =
    let line, col = line_col loc in
    findings := Finding.make ~rule ~file:path ~line ~col message :: !findings
  in
  let enabled rule = Config.enabled config rule in
  let in_numerics = Config.matches path config.numerics_prefixes in
  let r1_applies = enabled Rule.R1 && not in_numerics in
  let r2_applies =
    enabled Rule.R2
    && Config.matches path config.r2_prefixes
    && not (Config.matches path config.r2_allowlist)
  in
  let r4_applies = enabled Rule.R4 && Config.matches path config.r4_prefixes in

  (* Ordering against 0., 1. or -1. is an exact domain guard; any other
     literal is an unnamed tolerance.  Float equality is R7's: only the
     inferred types show that an operand is a float. *)
  let check_ordering op loc lhs rhs =
    let literal =
      match float_literal lhs with
      | Some v -> Some v
      | None -> float_literal rhs
    in
    match literal with
    | None -> ()
    | Some v ->
        if
          (* lint: disable=R7 — configured literals match by exact bits *)
          not (List.exists (fun a -> Float.equal a v) config.ordering_literals)
        then
          add Rule.R1 loc
            (Printf.sprintf
               "ordering %s against magic float literal %g; bind it to a \
                named constant"
               op v)
  in

  let wildcard_handler (case : case) =
    match case.pc_lhs.ppat_desc with
    | Ppat_any -> Some case.pc_lhs.ppat_loc
    | Ppat_exception { ppat_desc = Ppat_any; ppat_loc; _ } -> Some ppat_loc
    | _ -> None
  in

  let expr_iter (iterator : Ast_iterator.iterator) expr =
    (match expr.pexp_desc with
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Lident op; _ }; _ },
          [ (Nolabel, lhs); (Nolabel, rhs) ] )
      when r1_applies && List.mem op ordering_ops ->
        check_ordering op expr.pexp_loc lhs rhs
    | Pexp_ident { txt; loc }
      when r2_applies && List.mem (dotted txt) config.r2_banned ->
        add Rule.R2 loc
          (Printf.sprintf
             "raw %s under/overflows on product-form dynamic ranges; route \
              through Crossbar_numerics.Logspace or Prob"
             (dotted txt))
    | Pexp_ident { txt; loc }
      when r4_applies && List.mem (dotted txt) config.stdout_names ->
        add Rule.R4 loc
          (Printf.sprintf
             "%s writes to stdout from library code; return data or take a \
              Format.formatter argument"
             (dotted txt))
    | Pexp_try (_, cases) when enabled Rule.R5 ->
        List.iter
          (fun case ->
            match wildcard_handler case with
            | Some loc ->
                add Rule.R5 loc
                  "catch-all handler swallows every exception (including \
                   Out_of_memory); match specific exceptions and carry \
                   context in the failure message"
            | None -> ())
          cases
    | Pexp_match (_, cases) when enabled Rule.R5 ->
        List.iter
          (fun case ->
            match case.pc_lhs.ppat_desc with
            | Ppat_exception { ppat_desc = Ppat_any; ppat_loc; _ } ->
                add Rule.R5 ppat_loc
                  "catch-all exception case swallows every exception; match \
                   specific exceptions and carry context"
            | _ -> ())
          cases
    | _ -> ());
    Ast_iterator.default_iterator.expr iterator expr
  in
  let iterator = { Ast_iterator.default_iterator with expr = expr_iter } in
  iterator.structure iterator structure;
  List.rev !findings
