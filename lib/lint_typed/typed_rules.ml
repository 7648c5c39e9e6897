module Lint = Crossbar_lint
module Finding = Lint.Finding
module Rule = Lint.Rule

type session = { mutable loadpath : string list }

let session () = { loadpath = [] }

let line_col (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

(* ---------- name tables ---------- *)

(* [Path.name] renders typechecker-resolved paths, so aliases and [open]s
   are already seen through; both the source ("Stdlib.Float.equal") and
   the mangled-unit ("Stdlib__Float.equal") spellings occur depending on
   how the value was reached. *)
let float_eq_names =
  [
    "Stdlib.Float.equal"; "Stdlib.Float.compare";
    "Stdlib__Float.equal"; "Stdlib__Float.compare";
    "Float.equal"; "Float.compare";
  ]

let poly_eq_names =
  [ "Stdlib.="; "Stdlib.<>"; "Stdlib.=="; "Stdlib.!="; "Stdlib.compare" ]

let mutator_names =
  [
    "Stdlib.:="; "Stdlib.incr"; "Stdlib.decr";
    "Stdlib.Array.set"; "Stdlib.Array.unsafe_set"; "Stdlib.Array.fill";
    "Stdlib.Array.blit";
    "Stdlib.Bytes.set"; "Stdlib.Bytes.unsafe_set"; "Stdlib.Bytes.fill";
    "Stdlib.Bytes.blit";
    "Stdlib.Hashtbl.add"; "Stdlib.Hashtbl.replace"; "Stdlib.Hashtbl.remove";
    "Stdlib.Hashtbl.reset"; "Stdlib.Hashtbl.clear";
    "Stdlib.Hashtbl.filter_map_inplace";
    "Stdlib.Queue.add"; "Stdlib.Queue.push"; "Stdlib.Queue.pop";
    "Stdlib.Queue.take"; "Stdlib.Queue.clear"; "Stdlib.Queue.transfer";
    "Stdlib.Stack.push"; "Stdlib.Stack.pop"; "Stdlib.Stack.clear";
    "Stdlib.Buffer.add_char"; "Stdlib.Buffer.add_string";
    "Stdlib.Buffer.add_bytes"; "Stdlib.Buffer.add_substring";
    "Stdlib.Buffer.add_buffer"; "Stdlib.Buffer.clear"; "Stdlib.Buffer.reset";
  ]

let raise_names = [ "Stdlib.raise"; "Stdlib.raise_notrace" ]
let addsub_names = [ "Stdlib.+."; "Stdlib.-." ]
let cmp_op_names = [ "Stdlib.<"; "Stdlib.>"; "Stdlib.<="; "Stdlib.>=" ]

let last_component name =
  match String.rindex_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let lock_wrapper ~(config : Lint.Config.t) name =
  List.exists
    (fun wrapper ->
      String.equal wrapper name || String.equal wrapper (last_component name))
    config.Lint.Config.r9_lock_wrappers

(* A configured pattern like "Pool.run" must match however the
   typechecker rendered the resolved path: "Pool.run" inside the defining
   library, "Crossbar_engine.Pool.run" through the alias, or the mangled
   "Crossbar_engine__Pool.run" from a direct unit reference.  Matching the
   trailing value component plus the short name of the module right above
   it covers all three; a bare single-component pattern ("locked") keeps
   the r9_lock_wrappers semantics of matching any path ending there. *)
let dotted_match ~pattern name =
  if String.equal pattern name then true
  else
    match String.rindex_opt pattern '.' with
    | None -> String.equal pattern (last_component name)
    | Some i -> (
        let pat_value = String.sub pattern (i + 1) (String.length pattern - i - 1) in
        let pat_mod = String.sub pattern 0 i in
        String.equal pat_value (last_component name)
        &&
        match String.rindex_opt name '.' with
        | None -> false
        | Some j ->
            let mod_part = String.sub name 0 j in
            let short =
              match String.rindex_opt mod_part '.' with
              | Some k ->
                  String.sub mod_part (k + 1) (String.length mod_part - k - 1)
              | None -> mod_part
            in
            (* Strip "Lib__" unit mangling off the module segment. *)
            let short =
              match String.rindex_opt short '_' with
              | Some k when k > 0 && short.[k - 1] = '_' ->
                  String.sub short (k + 1) (String.length short - k - 1)
              | _ -> short
            in
            String.equal short pat_mod)

let domain_sink ~(config : Lint.Config.t) name =
  List.exists
    (fun pattern -> dotted_match ~pattern name)
    config.Lint.Config.r10_sinks

(* ---------- environment reconstruction ---------- *)

(* [.cmt] files store environments as summaries; rebuilding them needs the
   load path the unit was compiled with.  Re-initialising the global load
   path and the persistent-structure caches is only done when the path
   set actually changes (units of one library share it), which is what
   keeps a full-tree run fast. *)
let prepare_env ~session ~cmt_root (cmt : Cmt_format.cmt_infos) =
  let dirs =
    List.map
      (fun dir ->
        if String.equal dir "" then cmt_root
        else if Filename.is_relative dir then Filename.concat cmt_root dir
        else dir)
      cmt.Cmt_format.cmt_loadpath
  in
  let dirs =
    if List.mem Config.standard_library dirs then dirs
    else dirs @ [ Config.standard_library ]
  in
  if dirs <> session.loadpath then begin
    session.loadpath <- dirs;
    Load_path.init ~auto_include:Load_path.no_auto_include dirs;
    Env.reset_cache ();
    Envaux.reset_cache ()
  end

let env_of node_env =
  match Envaux.env_of_only_summary node_env with
  | env -> env
  | exception (Envaux.Error _ | Env.Error _ | Not_found) -> node_env

let expand env ty =
  match Ctype.expand_head env ty with
  | ty -> ty
  | exception (Env.Error _ | Not_found) -> ty

let is_float env ty =
  match Types.get_desc (expand env ty) with
  | Types.Tconstr (p, [], _) -> Path.same p Predef.path_float
  | _ -> false

let is_arrow env ty =
  match Types.get_desc (expand env ty) with
  | Types.Tarrow _ -> true
  | _ -> false

(* ---------- R8/R10: is this type mutable? ---------- *)

let bigarray_name name =
  String.starts_with ~prefix:"Stdlib.Bigarray." name
  || String.starts_with ~prefix:"Stdlib__Bigarray." name
  || String.starts_with ~prefix:"Bigarray." name

let rec mutable_reason ~(config : Lint.Config.t) ~depth env ty =
  if depth > 8 then None
  else
    match Types.get_desc (expand env ty) with
    | Types.Tconstr (p, _, _) ->
        let name = Path.name p in
        if Path.same p Predef.path_array || Path.same p Predef.path_floatarray
        then Some "an array"
        else if Path.same p Predef.path_bytes then Some "a Bytes buffer"
        else if List.mem name config.Lint.Config.r8_sanctioned_types then None
        else if List.mem name config.Lint.Config.r8_mutable_types then
          Some (Printf.sprintf "a mutable %s" name)
        else if bigarray_name name then Some "a Bigarray"
        else begin
          match Env.find_type p env with
          | decl -> (
              match decl.Types.type_kind with
              | Types.Type_record (labels, _) -> (
                  match
                    List.find_opt
                      (fun (l : Types.label_declaration) ->
                        l.Types.ld_mutable = Asttypes.Mutable)
                      labels
                  with
                  | Some l ->
                      Some
                        (Printf.sprintf "a record with mutable field %s"
                           (Ident.name l.Types.ld_id))
                  | None ->
                      (* An immutable record can still wrap a mutable
                         component type. *)
                      List.find_map
                        (fun (l : Types.label_declaration) ->
                          mutable_reason ~config ~depth:(depth + 1) env
                            l.Types.ld_type)
                        labels)
              | _ ->
                  (* Abstract or variant: trust the abstraction boundary
                     unless configured otherwise. *)
                  None)
          | exception Not_found -> None
        end
    | Types.Ttuple items ->
        List.find_map (mutable_reason ~config ~depth:(depth + 1) env) items
    | _ -> None

(* R10's per-capture classification: the r10_guarded_types list extends
   the sanctioned set with the repo's own mutex-guarded abstractions, so
   a [Telemetry.t] capture is clean even inside the library where the
   type is concrete (and would otherwise read as a mutable record). *)
let capture_reason ~(config : Lint.Config.t) env ty =
  match Types.get_desc (expand env ty) with
  | Types.Tconstr (p, _, _)
    when List.mem (Path.name p) config.Lint.Config.r10_guarded_types ->
      None
  | _ -> mutable_reason ~config ~depth:0 env ty

(* ---------- per-file analysis ---------- *)

let read_cmt cmt_path =
  match Cmt_format.read_cmt cmt_path with
  | cmt -> Ok cmt
  | exception Cmt_format.Error (Cmt_format.Not_a_typedtree m) ->
      Error (Printf.sprintf "%s: not a typedtree (%s)" cmt_path m)
  | exception Cmi_format.Error _ ->
      Error (Printf.sprintf "%s: not a .cmt artifact" cmt_path)
  | exception Sys_error m -> Error m
  | exception (End_of_file | Failure _) ->
      Error (Printf.sprintf "%s: truncated or corrupt .cmt" cmt_path)

open Typedtree

let ident_path e =
  match e.exp_desc with Texp_ident (p, _, _) -> Some p | _ -> None

(* A mutation target counts as top-level when it resolves to a module
   component ([Pdot]: some unit's export) or to one of this unit's own
   top-level values; anything else is call-frame-local and fresh per
   invocation.  Shadowing a top-level name with a local produces a false
   positive — the over-approximate (safe) direction, and suppressible. *)
let rec global_target ~toplevel e =
  match e.exp_desc with
  | Texp_ident ((Path.Pdot _ as p), _, _) -> Some (Path.name p)
  | Texp_ident (Path.Pident id, _, _) when Hashtbl.mem toplevel (Ident.name id)
    ->
      Some (Ident.name id)
  | Texp_field (inner, _, label) ->
      Option.map
        (fun base -> base ^ "." ^ label.Types.lbl_name)
        (global_target ~toplevel inner)
  | _ -> None

(* The curried parameter spine of a top-level binding: the maximal chain
   of single-case unguarded [fun] nodes.  Spine nodes are the function
   itself, not closures it builds, so they never become lambda records;
   their pattern idents are the function's parameters, indexed by level
   for the Arg_param edges the capture fixpoint propagates over. *)
let peel_spine expr =
  (* An optional parameter with a default, [?(stride = 1)], elaborates to
     a ["*opt*"] parameter whose body immediately lets the visible name to
     the defaulted match before the next [fun] — peel through that let so
     the remaining parameters stay on the spine (and are not misread as
     closures the function allocates). *)
  let through_default param c_rhs =
    if String.starts_with ~prefix:"*opt*" (Ident.name param) then
      match c_rhs.exp_desc with
      | Texp_let (_, vbs, body) ->
          (List.concat_map (fun vb -> pat_bound_idents vb.vb_pat) vbs, body)
      | _ -> ([], c_rhs)
    else ([], c_rhs)
  in
  let rec peel params nodes exp =
    match exp.exp_desc with
    | Texp_function
        { param; cases = [ { c_lhs; c_guard = None; c_rhs } ]; _ } ->
        let defaulted, next = through_default param c_rhs in
        let level = (param :: pat_bound_idents c_lhs) @ defaulted in
        peel (level :: params) (exp :: nodes) next
    | Texp_function _ -> (List.rev params, exp :: nodes)
    | _ -> (List.rev params, nodes)
  in
  peel [] [] expr

(* Every ident bound anywhere inside [e]: pattern idents (let, match,
   function cases) plus for-loop indices.  Free-variable computation is
   "uses minus this set" — over-approximate on shadowing in the harmless
   direction (a shadowed outer name is not reported as captured). *)
let bound_idents_within e =
  let acc = ref [] in
  let pat :
      type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun sub p ->
    acc := pat_bound_idents p @ !acc;
    Tast_iterator.default_iterator.pat sub p
  in
  let expr sub (e : expression) =
    (match e.exp_desc with
    | Texp_for (id, _, _, _, _, _) -> acc := id :: !acc
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with pat; expr } in
  it.Tast_iterator.expr it e;
  !acc

let analyse ~(config : Lint.Config.t) ~path ~r8_applies ~session ~cmt_root
    ~cmt_path =
  Result.bind (read_cmt cmt_path) @@ fun cmt ->
  match cmt.Cmt_format.cmt_annots with
  | Cmt_format.Implementation structure ->
      prepare_env ~session ~cmt_root cmt;
      let findings = ref [] in
      let funcs = ref [] in
      let in_numerics =
        Lint.Config.matches path config.Lint.Config.numerics_prefixes
      in
      let enabled rule = Lint.Config.enabled config rule in
      let r7_applies = enabled Rule.R7 && not in_numerics in
      let add rule loc message =
        let line, col = line_col loc in
        findings :=
          Finding.make ~rule ~file:path ~line ~col message :: !findings
      in

      (* Every top-level value name of the unit, for mutation-target
         resolution (collected up front so forward references count). *)
      let toplevel = Hashtbl.create 32 in
      let rec collect_names items =
        List.iter
          (fun item ->
            match item.str_desc with
            | Tstr_value (_, bindings) ->
                List.iter
                  (fun vb ->
                    match vb.vb_pat.pat_desc with
                    | Tpat_var (id, _) ->
                        Hashtbl.replace toplevel (Ident.name id) ()
                    | _ -> ())
                  bindings
            | Tstr_module { mb_expr = { mod_desc = Tmod_structure s; _ }; _ }
              ->
                collect_names s.str_items
            | _ -> ())
          items
      in
      collect_names structure.str_items;

      (* One iterator pass per top-level binding body serves R7 (float
         comparisons), the R9 summary (referenced paths + writes to
         top-level state, with lock context) and the capture summary
         (lambdas with their mutable captures, call sites forwarding
         lambdas or parameters). *)
      let calls = ref [] in
      let mutations = ref [] in
      let lambdas = ref [] in
      let lock_depth = ref 0 in
      (* Lambda ids are file-scoped so [(path, lam_id)] is unique even
         when a file defines two functions of the same name. *)
      let next_lam = ref 0 in
      let fresh_lam () =
        let id = !next_lam in
        incr next_lam;
        id
      in
      (* Per-binding traversal state. *)
      let spine_nodes = ref [] in
      let param_levels = ref [] in
      let lambda_stack = ref [] in
      (* Source name (or "record.field") of a locally-bound closure to the
         location of its [fun] node ... *)
      let local_lambdas = Hashtbl.create 8 in
      (* ... resolved through the [fun]-location to lambda-id table once
         the node has been visited. *)
      let lambda_at = Hashtbl.create 8 in
      let captures_of = Hashtbl.create 8 in
      (* Call sites with lambda-literal args are recorded before their
         args are traversed (and so before those lambdas have ids); the
         pending location is resolved at end of binding. *)
      let pending_callsites = ref [] in

      (* Effect-stage per-binding state.  Raise and eff-call sites are
         extracted unconditionally (they are part of the summary);
         float-domain tracking is skipped inside the numerics libraries,
         whose internals mix domains by design — exactly the R1/R7
         exemption. *)
      let track_domains = not in_numerics in
      let raises = ref [] in
      let eff_calls = ref [] in
      let seen_eff = Hashtbl.create 16 in
      let domain_sites = ref [] in
      let try_depth = ref 0 in
      (* Local float-domain environment: ident name to inferred domain. *)
      let dom_env = Hashtbl.create 16 in

      let param_index id =
        let rec find level = function
          | [] -> None
          | idents :: rest ->
              if List.exists (Ident.same id) idents then Some level
              else find (level + 1) rest
        in
        find 0 !param_levels
      in
      let record_mutation loc target =
        let line, col = line_col loc in
        mutations :=
          {
            Summary.m_line = line;
            m_col = col;
            target;
            locked = !lock_depth > 0;
            m_lambda =
              (match !lambda_stack with id :: _ -> Some id | [] -> None);
          }
          :: !mutations
      in
      let note_ident loc p =
        let name = Path.name p in
        if r7_applies && List.mem name float_eq_names then
          add Rule.R7 loc
            (Printf.sprintf
               "%s is an exact float comparison; use \
                Crossbar_numerics.Prob.{is_zero,approx_eq,ulp_equal} or a \
                named tolerance"
               name)
        else if
          (not (String.starts_with ~prefix:"Stdlib" name))
          && not (String.starts_with ~prefix:"CamlinternalFormat" name)
        then calls := name :: !calls
      in
      let check_apply loc fn args =
        match ident_path fn with
        | None -> ()
        | Some p -> (
            let name = Path.name p in
            (if r7_applies && List.mem name poly_eq_names then
               let on_float =
                 List.exists
                   (fun (_, arg) ->
                     match arg with
                     | Some (a : expression) ->
                         is_float (env_of a.exp_env) a.exp_type
                     | None -> false)
                   args
               in
               if on_float then
                 add Rule.R7 loc
                   (Printf.sprintf
                      "polymorphic %s applied to float operands compares bit \
                       patterns; use \
                       Crossbar_numerics.Prob.{is_zero,approx_eq,ulp_equal} \
                       or a named tolerance"
                      (last_component name)));
            if List.mem name mutator_names then
              (* Only the structure argument can be the mutation target:
                 for [:=], [incr], [set] and friends that is the first
                 argument; [blit] also writes its destination, so every
                 argument stays in play there.  Value operands (the RHS
                 of [:=]) must not resolve — [phi := neg_infinity] reads
                 the global, it does not write it. *)
              let candidates =
                if String.equal (last_component name) "blit" then args
                else match args with [] -> [] | first :: _ -> [ first ]
              in
              match
                List.find_map
                  (fun (_, arg) -> Option.bind arg (global_target ~toplevel))
                  candidates
              with
              | Some target ->
                  record_mutation loc
                    (Printf.sprintf "%s (via %s)" target (last_component name))
              | None -> ())
      in

      (* The local name a closure-valued argument is reached through:
         a bare ident or one field projection off a local record. *)
      let local_closure_name e =
        match e.exp_desc with
        | Texp_ident (Path.Pident id, _, _) -> Some (Ident.name id)
        | Texp_field ({ exp_desc = Texp_ident (Path.Pident id, _, _); _ },
                      _, label) ->
            Some (Ident.name id ^ "." ^ label.Types.lbl_name)
        | _ -> None
      in

      (* Free variables of [lam] classified for mutability.  A free name
         that is itself a locally-bound closure contributes its own
         captures with the chain extended — the one-level transitive step
         that makes [let bound = fun ... in Pool.run (fun i -> bound i)]
         report the state [bound] closes over. *)
      let compute_captures lam =
        let bound = bound_idents_within lam in
        let is_bound id = List.exists (Ident.same id) bound in
        let seen = Hashtbl.create 8 in
        let out = ref [] in
        let record name line col reason via =
          if not (Hashtbl.mem seen name) then begin
            Hashtbl.replace seen name ();
            out :=
              {
                Summary.c_name = name;
                c_line = line;
                c_col = col;
                c_reason = reason;
                c_via = via;
              }
              :: !out
          end
        in
        let inherit_from name loc =
          match Hashtbl.find_opt local_lambdas name with
          | None -> false
          | Some fun_loc -> (
              match Hashtbl.find_opt lambda_at fun_loc with
              | None -> false
              | Some id ->
                  let line, col = line_col loc in
                  List.iter
                    (fun (c : Summary.capture) ->
                      record c.Summary.c_name line col c.Summary.c_reason
                        (name :: c.Summary.c_via))
                    (Option.value ~default:[]
                       (Hashtbl.find_opt captures_of id));
                  true)
        in
        let expr sub (e : expression) =
          (match e.exp_desc with
          | Texp_ident (Path.Pident id, _, _) when not (is_bound id) ->
              let name = Ident.name id in
              if not (inherit_from name e.exp_loc) then (
                match
                  capture_reason ~config (env_of e.exp_env) e.exp_type
                with
                | Some reason ->
                    let line, col = line_col e.exp_loc in
                    record name line col reason []
                | None -> ())
          | Texp_ident ((Path.Pdot _ as p), _, _) -> (
              match capture_reason ~config (env_of e.exp_env) e.exp_type with
              | Some reason ->
                  let line, col = line_col e.exp_loc in
                  record (Path.name p) line col reason []
              | None -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e
        in
        let it = { Tast_iterator.default_iterator with expr } in
        it.Tast_iterator.expr it lam;
        List.rev !out
      in

      (* A partial application at an argument position builds a closure
         with no [fun] node to hang a record on; synthesise one whose
         captures are the application's own mutable operands, so
         [Pool.run (add_into buf)] still reports [buf]. *)
      let pseudo_lambda e inner_args =
        let id = fresh_lam () in
        let line, col = line_col e.exp_loc in
        let seen = Hashtbl.create 4 in
        let captures = ref [] in
        List.iter
          (fun (_, arg) ->
            match arg with
            | Some (a : expression) -> (
                let name =
                  match a.exp_desc with
                  | Texp_ident (Path.Pident id, _, _) -> Some (Ident.name id)
                  | Texp_ident ((Path.Pdot _ as p), _, _) ->
                      Some (Path.name p)
                  | _ -> None
                in
                match name with
                | Some name when not (Hashtbl.mem seen name) -> (
                    match
                      capture_reason ~config (env_of a.exp_env) a.exp_type
                    with
                    | Some reason ->
                        Hashtbl.replace seen name ();
                        let c_line, c_col = line_col a.exp_loc in
                        captures :=
                          {
                            Summary.c_name = name;
                            c_line;
                            c_col;
                            c_reason = reason;
                            c_via = [];
                          }
                          :: !captures
                    | None -> ())
                | _ -> ())
            | None -> ())
          inner_args;
        let captures = List.rev !captures in
        Hashtbl.replace captures_of id captures;
        lambdas :=
          { Summary.lam_id = id; lam_line = line; lam_col = col; captures }
          :: !lambdas;
        id
      in

      (* [`At loc] args await the lambda id assigned when the literal is
         visited; everything else is final immediately. *)
      let classify_arg (a : expression) =
        match a.exp_desc with
        | Texp_function _ -> `At (line_col a.exp_loc)
        | Texp_ident (Path.Pident id, _, _) -> (
            match param_index id with
            | Some i when is_arrow (env_of a.exp_env) a.exp_type ->
                `Known (Summary.Arg_param i)
            | _ ->
                if Hashtbl.mem local_lambdas (Ident.name id) then
                  `At_local (Ident.name id)
                else `Known Summary.Arg_other)
        | Texp_field _ -> (
            match local_closure_name a with
            | Some name when Hashtbl.mem local_lambdas name -> `At_local name
            | _ -> `Known Summary.Arg_other)
        | Texp_apply (_, inner_args)
          when is_arrow (env_of a.exp_env) a.exp_type ->
            `Known (Summary.Arg_lambda (pseudo_lambda a inner_args))
        | _ -> `Known Summary.Arg_other
      in
      let note_callsite loc fn args =
        match ident_path fn with
        | None -> ()
        | Some p ->
            let pending =
              List.map
                (fun (_, arg) ->
                  match arg with
                  | Some a -> classify_arg a
                  | None -> `Known Summary.Arg_other)
                args
            in
            let interesting =
              List.exists
                (function
                  | `Known Summary.Arg_other -> false
                  | `Known _ | `At _ | `At_local _ -> true)
                pending
            in
            if interesting then begin
              let line, col = line_col loc in
              pending_callsites :=
                (line, col, Path.name p, pending) :: !pending_callsites
            end
      in
      let note_local_closures vbs =
        List.iter
          (fun vb ->
            match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
            | Tpat_var (id, _), Texp_function _ ->
                Hashtbl.replace local_lambdas (Ident.name id)
                  (line_col vb.vb_expr.exp_loc)
            | Tpat_var (id, _), Texp_record { fields; _ } ->
                Array.iter
                  (fun ((label : Types.label_description), definition) ->
                    match definition with
                    | Overridden (_, ({ exp_desc = Texp_function _; _ } as f))
                      ->
                        Hashtbl.replace local_lambdas
                          (Ident.name id ^ "." ^ label.Types.lbl_name)
                          (line_col f.exp_loc)
                    | _ -> ())
                  fields
            | _ -> ())
          vbs
      in

      (* ---------- effect extraction ---------- *)
      let record_raise loc exn =
        if !try_depth = 0 && not in_numerics then begin
          let line, col = line_col loc in
          raises :=
            {
              Summary.r_line = line;
              r_col = col;
              r_exn = exn;
              r_lambdas = List.rev !lambda_stack;
            }
            :: !raises
        end
      in
      let record_eff_call loc name =
        if !try_depth = 0 then begin
          let stack = List.rev !lambda_stack in
          let key =
            name ^ "|" ^ String.concat "," (List.map string_of_int stack)
          in
          if not (Hashtbl.mem seen_eff key) then begin
            Hashtbl.replace seen_eff key ();
            let line, col = line_col loc in
            eff_calls :=
              {
                Summary.e_name = name;
                e_line = line;
                e_col = col;
                e_lambdas = stack;
              }
              :: !eff_calls
          end
        end
      in
      let matches_producer patterns name =
        List.exists (fun pattern -> dotted_match ~pattern name) patterns
      in
      let printable_src (e : expression) =
        match e.exp_desc with
        | Texp_ident (p, _, _) -> Path.name p
        | Texp_field ({ exp_desc = Texp_ident (p, _, _); _ }, _, label) ->
            Path.name p ^ "." ^ label.Types.lbl_name
        | _ -> "<expr>"
      in
      (* Addition/subtraction preserve a domain the other operand does not
         contradict (log_g folds a sum then subtracts a log constant);
         branch merges are strict — disagreeing arms yield [DUnknown]. *)
      let join_dom a b =
        match (a, b) with
        | Summary.Known Summary.DUnknown, d | d, Summary.Known Summary.DUnknown
          ->
            d
        | a, b when a = b -> a
        | _ -> Summary.Known Summary.DUnknown
      in
      let branch_join a b =
        if a = b then a else Summary.Known Summary.DUnknown
      in
      let rec eval_dom (e : expression) : Summary.domexpr =
        match e.exp_desc with
        | Texp_ident (Path.Pident id, _, _) ->
            Option.value
              ~default:(Summary.Known Summary.DUnknown)
              (Hashtbl.find_opt dom_env (Ident.name id))
        | Texp_apply (fn, args) -> (
            match ident_path fn with
            | None -> Summary.Known Summary.DUnknown
            | Some p ->
                let name = Path.name p in
                if matches_producer config.Lint.Config.r13_log_producers name
                then Summary.Known Summary.Log
                else if
                  matches_producer config.Lint.Config.r13_linear_producers name
                then Summary.Known Summary.Linear
                else if
                  matches_producer config.Lint.Config.r13_mantissa_producers
                    name
                then
                  let src =
                    match args with
                    | (_, Some a) :: _ -> printable_src a
                    | _ -> "<expr>"
                  in
                  Summary.Known (Summary.Mantissa src)
                else if List.mem name addsub_names then (
                  match args with
                  | [ (_, Some l); (_, Some r) ] ->
                      join_dom (eval_dom l) (eval_dom r)
                  | _ -> Summary.Known Summary.DUnknown)
                else if
                  String.starts_with ~prefix:"Stdlib" name
                  || String.starts_with ~prefix:"CamlinternalFormat" name
                then Summary.Known Summary.DUnknown
                else if is_float (env_of e.exp_env) e.exp_type then
                  (* Resolution to the callee's return domain happens in
                     the Effects fixpoint, once every summary is known. *)
                  Summary.DCall name
                else Summary.Known Summary.DUnknown)
        | Texp_let (_, vbs, body) ->
            List.iter
              (fun vb ->
                match vb.vb_pat.pat_desc with
                | Tpat_var (id, _) ->
                    Hashtbl.replace dom_env (Ident.name id)
                      (eval_dom vb.vb_expr)
                | _ -> ())
              vbs;
            eval_dom body
        | Texp_sequence (_, body) -> eval_dom body
        | Texp_ifthenelse (_, t, Some f) ->
            branch_join (eval_dom t) (eval_dom f)
        | Texp_match (_, cases, _) -> (
            match
              List.map (fun c -> eval_dom c.Typedtree.c_rhs) cases
            with
            | [] -> Summary.Known Summary.DUnknown
            | first :: rest -> List.fold_left branch_join first rest)
        | _ -> Summary.Known Summary.DUnknown
      in
      let potential_log = function
        | Summary.Known Summary.Log | Summary.DCall _ -> true
        | _ -> false
      in
      let potential_lin = function
        | Summary.Known Summary.Linear
        | Summary.Known (Summary.Mantissa _)
        | Summary.DCall _ ->
            true
        | _ -> false
      in
      let potential_mantissa = function
        | Summary.Known (Summary.Mantissa _) | Summary.DCall _ -> true
        | _ -> false
      in
      let record_domain_site loc op l r =
        let line, col = line_col loc in
        domain_sites :=
          {
            Summary.d_line = line;
            d_col = col;
            d_op = op;
            d_left = l;
            d_right = r;
          }
          :: !domain_sites
      in
      (* Candidate R13 sites: an add/sub whose operands could straddle the
         log/linear divide, a log->linear conversion of a value that may
         already be linear, and an ordering comparison of mantissas whose
         rescale exponents may differ.  Sites with [DCall] operands are
         provisional; {!Effects} resolves them against callee summaries. *)
      let note_domains (e : expression) fn args =
        match ident_path fn with
        | None -> ()
        | Some p ->
            let name = Path.name p in
            if List.mem name addsub_names then (
              match args with
              | [ (_, Some le); (_, Some re) ] ->
                  let l = eval_dom le and r = eval_dom re in
                  if
                    (potential_log l && potential_lin r)
                    || (potential_log r && potential_lin l)
                  then record_domain_site e.exp_loc Summary.Dom_add l r
              | _ -> ())
            else if
              matches_producer config.Lint.Config.r13_linear_producers name
            then (
              match args with
              | (_, Some a) :: _ -> (
                  match eval_dom a with
                  | (Summary.Known Summary.Linear | Summary.DCall _) as d ->
                      record_domain_site e.exp_loc Summary.Dom_exp d
                        (Summary.Known Summary.DUnknown)
                  | _ -> ())
              | _ -> ())
            else if List.mem name cmp_op_names then
              match args with
              | [ (_, Some le); (_, Some re) ]
                when is_float (env_of le.exp_env) le.exp_type
                     && is_float (env_of re.exp_env) re.exp_type -> (
                  let l = eval_dom le and r = eval_dom re in
                  match (l, r) with
                  | ( Summary.Known (Summary.Mantissa a),
                      Summary.Known (Summary.Mantissa b) ) ->
                      if not (String.equal a b) then
                        record_domain_site e.exp_loc Summary.Dom_cmp l r
                  | _ ->
                      if potential_mantissa l && potential_mantissa r then
                        record_domain_site e.exp_loc Summary.Dom_cmp l r)
              | _ -> ()
      in
      let note_effects (e : expression) fn args =
        match ident_path fn with
        | None -> ()
        | Some p ->
            let name = Path.name p in
            if List.mem name raise_names then
              let exn =
                match args with
                | (_, Some { exp_desc = Texp_construct (_, cd, _); _ }) :: _ ->
                    cd.Types.cstr_name
                | _ -> "<dynamic>"
              in
              record_raise e.exp_loc exn
            else begin
              if
                (not (String.starts_with ~prefix:"Stdlib" name))
                && not (String.starts_with ~prefix:"CamlinternalFormat" name)
              then record_eff_call e.exp_loc name;
              if track_domains then note_domains e fn args
            end
      in
      let rec spine_body exp =
        match exp.exp_desc with
        | Texp_function { cases = [ { c_guard = None; c_rhs; _ } ]; _ } ->
            spine_body c_rhs
        | Texp_let (_, _, body)
          when match body.exp_desc with
               | Texp_function _ -> true
               | _ -> false ->
            (* the defaulted-optional let between two spine nodes *)
            spine_body body
        | _ -> exp
      in
      let exception_match cases =
        List.exists
          (fun c ->
            match Typedtree.split_pattern c.Typedtree.c_lhs with
            | _, Some _ -> true
            | _ -> false)
          cases
      in

      let visit iterator e =
        match e.exp_desc with
        | Texp_ident (p, _, _) -> note_ident e.exp_loc p
        | Texp_function _ when not (List.memq e !spine_nodes) ->
            let id = fresh_lam () in
            Hashtbl.replace lambda_at (line_col e.exp_loc) id;
            let captures = compute_captures e in
            Hashtbl.replace captures_of id captures;
            let line, col = line_col e.exp_loc in
            lambdas :=
              { Summary.lam_id = id; lam_line = line; lam_col = col; captures }
              :: !lambdas;
            lambda_stack := id :: !lambda_stack;
            Fun.protect
              ~finally:(fun () -> lambda_stack := List.tl !lambda_stack)
              (fun () -> Tast_iterator.default_iterator.expr iterator e)
        | Texp_let (_, vbs, _) ->
            note_local_closures vbs;
            List.iter
              (fun vb ->
                match vb.vb_pat.pat_desc with
                | Tpat_var (id, _) when track_domains ->
                    Hashtbl.replace dom_env (Ident.name id)
                      (eval_dom vb.vb_expr)
                | _ -> ())
              vbs;
            Tast_iterator.default_iterator.expr iterator e
        | Texp_try _ ->
            (* Lexical raise guard.  The whole node (handler included) is
               treated as guarded — catching-and-reraising enriched is an
               intended pattern, not an escaping effect. *)
            incr try_depth;
            Fun.protect
              ~finally:(fun () -> decr try_depth)
              (fun () -> Tast_iterator.default_iterator.expr iterator e)
        | Texp_match (_, cases, _) when exception_match cases ->
            (* [match ... with exception E -> ...] guards its scrutinee
               like [try]; the value cases ride along (over-suppression,
               the quiet direction). *)
            incr try_depth;
            Fun.protect
              ~finally:(fun () -> decr try_depth)
              (fun () -> Tast_iterator.default_iterator.expr iterator e)
        | Texp_apply (fn, args) -> (
            check_apply e.exp_loc fn args;
            note_callsite e.exp_loc fn args;
            note_effects e fn args;
            match ident_path fn with
            | Some p when lock_wrapper ~config (Path.name p) ->
                (* The wrapper's non-function arguments (the mutex, the
                   state handle) are evaluated unlocked; only function
                   literals run under the lock. *)
                iterator.Tast_iterator.expr iterator fn;
                List.iter
                  (fun (_, arg) ->
                    match arg with
                    | Some (a : expression) -> (
                        match a.exp_desc with
                        | Texp_function _ ->
                            incr lock_depth;
                            Fun.protect
                              ~finally:(fun () -> decr lock_depth)
                              (fun () ->
                                iterator.Tast_iterator.expr iterator a)
                        | _ -> iterator.Tast_iterator.expr iterator a)
                    | None -> ())
                  args
            | _ -> Tast_iterator.default_iterator.expr iterator e)
        | Texp_setfield (target, _, label, _) ->
            (match global_target ~toplevel target with
            | Some base ->
                record_mutation e.exp_loc
                  (base ^ "." ^ label.Types.lbl_name ^ " <- ...")
            | None -> ());
            Tast_iterator.default_iterator.expr iterator e
        | _ -> Tast_iterator.default_iterator.expr iterator e
      in
      let iterator = { Tast_iterator.default_iterator with expr = visit } in
      let analyse_body vb =
        calls := [];
        mutations := [];
        lambdas := [];
        lock_depth := 0;
        lambda_stack := [];
        Hashtbl.reset local_lambdas;
        Hashtbl.reset lambda_at;
        Hashtbl.reset captures_of;
        pending_callsites := [];
        raises := [];
        eff_calls := [];
        Hashtbl.reset seen_eff;
        domain_sites := [];
        try_depth := 0;
        Hashtbl.reset dom_env;
        let params, spine = peel_spine vb.vb_expr in
        param_levels := params;
        spine_nodes := spine;
        iterator.Tast_iterator.expr iterator vb.vb_expr;
        let callsites =
          List.rev_map
            (fun (line, col, callee, pending) ->
              {
                Summary.cs_line = line;
                cs_col = col;
                callee;
                args =
                  List.map
                    (function
                      | `Known kind -> kind
                      | `At loc -> (
                          match Hashtbl.find_opt lambda_at loc with
                          | Some id -> Summary.Arg_lambda id
                          | None -> Summary.Arg_other)
                      | `At_local name -> (
                          match
                            Option.bind
                              (Hashtbl.find_opt local_lambdas name)
                              (Hashtbl.find_opt lambda_at)
                          with
                          | Some id -> Summary.Arg_lambda id
                          | None -> Summary.Arg_other))
                    pending;
              })
            !pending_callsites
        in
        let callsites =
          List.filter
            (fun (c : Summary.callsite) ->
              List.exists
                (function
                  | Summary.Arg_other -> false
                  | Summary.Arg_param _ | Summary.Arg_lambda _ -> true)
                c.Summary.args)
            callsites
        in
        let ret_domain =
          if track_domains then eval_dom (spine_body vb.vb_expr)
          else Summary.Known Summary.DUnknown
        in
        ( List.rev !calls,
          List.rev !mutations,
          List.rev !lambdas,
          callsites,
          List.rev !raises,
          List.rev !eff_calls,
          List.rev !domain_sites,
          ret_domain )
      in

      let rec walk_items items =
        List.iter
          (fun item ->
            match item.str_desc with
            | Tstr_value (_, bindings) ->
                List.iter
                  (fun vb ->
                    (if r8_applies && enabled Rule.R8 then
                       let env = env_of vb.vb_expr.exp_env in
                       match
                         mutable_reason ~config ~depth:0 env vb.vb_expr.exp_type
                       with
                       | Some reason ->
                           add Rule.R8 vb.vb_loc
                             (Printf.sprintf
                                "top-level value's inferred type is %s, \
                                 shared across pool domains; use Atomic/Mutex \
                                 or annotate (* lint: domain-safe — reason *)"
                                reason)
                       | None -> ());
                    match vb.vb_pat.pat_desc with
                    | Tpat_var (id, _) ->
                        let line, col = line_col vb.vb_loc in
                        let ( calls,
                              mutations,
                              lambdas,
                              callsites,
                              raises,
                              eff_calls,
                              domain_sites,
                              ret_domain ) =
                          analyse_body vb
                        in
                        funcs :=
                          {
                            Summary.f_name = Ident.name id;
                            f_line = line;
                            f_col = col;
                            calls;
                            mutations;
                            lambdas;
                            callsites;
                            raises;
                            eff_calls;
                            domain_sites;
                            ret_domain;
                          }
                          :: !funcs
                    | _ ->
                        (* [let () = ...] load-time blocks: R7 still
                           applies; no function summary to record. *)
                        ignore (analyse_body vb))
                  bindings
            | Tstr_module { mb_expr; _ } -> walk_module mb_expr
            | Tstr_recmodule bindings ->
                List.iter (fun mb -> walk_module mb.mb_expr) bindings
            | Tstr_include { incl_mod; _ } -> walk_module incl_mod
            | _ -> ())
          items
      and walk_module mexpr =
        match mexpr.mod_desc with
        | Tmod_structure s -> walk_items s.str_items
        | Tmod_constraint (inner, _, _, _) -> walk_module inner
        | _ -> ()
      in
      walk_items structure.str_items;

      Ok
        ( List.rev !findings,
          {
            Summary.path;
            modname = cmt.Cmt_format.cmt_modname;
            funcs = List.rev !funcs;
          } )
  | _ -> Error (Printf.sprintf "%s: no implementation typedtree" cmt_path)
