module Lint = Crossbar_lint
module Finding = Lint.Finding
module Rule = Lint.Rule

type result = {
  r12 : Finding.t list;
  r13 : Finding.t list;
  raise_iterations : int;
  domain_iterations : int;
}

let key (node : Callgraph.node) =
  (node.Callgraph.file.Summary.path, node.Callgraph.func.Summary.f_name)

let boundary ~(config : Lint.Config.t) callee =
  List.exists
    (fun pattern -> Typed_rules.dotted_match ~pattern callee)
    config.Lint.Config.r12_boundaries

(* ---------- R12: raises must not escape configured boundaries ---------- *)

let r12_findings ~config resolve files =
  (* Fixpoint over the raise effect: E(f) holds when f raises at body
     level outside any lexical guard, or calls (at body level) a function
     with E.  [why] keeps one witness per function for the message. *)
  let escapes : (string * string, string) Hashtbl.t = Hashtbl.create 64 in
  let iterations = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    incr iterations;
    List.iter
      (fun (file : Summary.file) ->
        List.iter
          (fun (func : Summary.func) ->
            let k = (file.Summary.path, func.Summary.f_name) in
            if not (Hashtbl.mem escapes k) then begin
              match
                List.find_opt
                  (fun (r : Summary.raise_site) -> r.Summary.r_lambdas = [])
                  func.Summary.raises
              with
              | Some r ->
                  Hashtbl.replace escapes k
                    (Printf.sprintf "raises %s (line %d)" r.Summary.r_exn
                       r.Summary.r_line);
                  changed := true
              | None -> (
                  match
                    List.find_opt
                      (fun (e : Summary.eff_call) ->
                        e.Summary.e_lambdas = []
                        &&
                        match resolve file e.Summary.e_name with
                        | Some (next : Callgraph.node) ->
                            Hashtbl.mem escapes (key next)
                        | None -> false)
                      func.Summary.eff_calls
                  with
                  | Some e ->
                      Hashtbl.replace escapes k
                        (Printf.sprintf "calls %s, which %s"
                           e.Summary.e_name
                           (match resolve file e.Summary.e_name with
                           | Some next -> Hashtbl.find escapes (key next)
                           | None -> "may raise"));
                      changed := true
                  | None -> ())
            end)
          file.Summary.funcs)
      files
  done;
  let out = ref [] in
  List.iter
    (fun (file : Summary.file) ->
      List.iter
        (fun (func : Summary.func) ->
          List.iter
            (fun (cs : Summary.callsite) ->
              if boundary ~config cs.Summary.callee then
                List.iter
                  (function
                    | Summary.Arg_lambda id ->
                        (* Direct raises inside the lambda (any nesting
                           depth), then body-level calls from it into
                           escaping functions. *)
                        List.iter
                          (fun (r : Summary.raise_site) ->
                            if List.mem id r.Summary.r_lambdas then
                              out :=
                                Finding.make ~rule:Rule.R12
                                  ~file:file.Summary.path
                                  ~line:r.Summary.r_line ~col:r.Summary.r_col
                                  (Printf.sprintf
                                     "raise of %s escapes through the lambda \
                                      %s passes to %s; a mid-boundary \
                                      exception poisons shared state — catch \
                                      it inside the lambda or return a result"
                                     r.Summary.r_exn func.Summary.f_name
                                     cs.Summary.callee)
                                :: !out)
                          func.Summary.raises;
                        List.iter
                          (fun (e : Summary.eff_call) ->
                            if List.mem id e.Summary.e_lambdas then
                              match resolve file e.Summary.e_name with
                              | Some (next : Callgraph.node)
                                when Hashtbl.mem escapes (key next) ->
                                  out :=
                                    Finding.make ~rule:Rule.R12
                                      ~file:file.Summary.path
                                      ~line:e.Summary.e_line
                                      ~col:e.Summary.e_col
                                      (Printf.sprintf
                                         "%s, called from the lambda %s \
                                          passes to %s, %s; a mid-boundary \
                                          exception poisons shared state — \
                                          guard the call or make the callee \
                                          total"
                                         e.Summary.e_name func.Summary.f_name
                                         cs.Summary.callee
                                         (Hashtbl.find escapes (key next)))
                                    :: !out
                              | _ -> ())
                          func.Summary.eff_calls
                    | _ -> ())
                  cs.Summary.args)
            func.Summary.callsites)
        file.Summary.funcs)
    files;
  (List.rev !out, !iterations)

(* ---------- R13: no cross-domain float arithmetic ---------- *)

let describe = function
  | Summary.Linear -> "linear-domain"
  | Summary.Log -> "log-domain"
  | Summary.Mantissa src -> Printf.sprintf "a rescaled mantissa of %s" src
  | Summary.DUnknown -> "unknown-domain"

let r13_findings resolve files =
  (* Fixpoint resolving every function's return domain: [DCall g] takes
     g's resolved domain.  A mantissa does not survive the call boundary
     (the caller cannot know which profile it came from), so it resolves
     to unknown rather than seeding false cross-exponent pairs. *)
  let resolved : (string * string, Summary.domain) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (file : Summary.file) ->
      List.iter
        (fun (func : Summary.func) ->
          let k = (file.Summary.path, func.Summary.f_name) in
          match func.Summary.ret_domain with
          | Summary.Known d -> Hashtbl.replace resolved k d
          | Summary.DCall _ -> Hashtbl.replace resolved k Summary.DUnknown)
        file.Summary.funcs)
    files;
  let iterations = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    incr iterations;
    List.iter
      (fun (file : Summary.file) ->
        List.iter
          (fun (func : Summary.func) ->
            match func.Summary.ret_domain with
            | Summary.DCall callee -> (
                match resolve file callee with
                | Some (next : Callgraph.node) -> (
                    let k = (file.Summary.path, func.Summary.f_name) in
                    let d =
                      match Hashtbl.find_opt resolved (key next) with
                      | Some (Summary.Mantissa _) | None -> Summary.DUnknown
                      | Some d -> d
                    in
                    match Hashtbl.find_opt resolved k with
                    | Some current when current = d -> ()
                    | _ ->
                        Hashtbl.replace resolved k d;
                        changed := true)
                | None -> ())
            | Summary.Known _ -> ())
          file.Summary.funcs)
      files
  done;
  let domain_of (file : Summary.file) = function
    | Summary.Known d -> d
    | Summary.DCall callee -> (
        match resolve file callee with
        | Some (next : Callgraph.node) -> (
            match Hashtbl.find_opt resolved (key next) with
            | Some (Summary.Mantissa _) | None -> Summary.DUnknown
            | Some d -> d)
        | None -> Summary.DUnknown)
  in
  let out = ref [] in
  List.iter
    (fun (file : Summary.file) ->
      List.iter
        (fun (func : Summary.func) ->
          List.iter
            (fun (d : Summary.domain_site) ->
              let l = domain_of file d.Summary.d_left in
              let r = domain_of file d.Summary.d_right in
              let emit message =
                out :=
                  Finding.make ~rule:Rule.R13 ~file:file.Summary.path
                    ~line:d.Summary.d_line ~col:d.Summary.d_col message
                  :: !out
              in
              match d.Summary.d_op with
              | Summary.Dom_add -> (
                  match (l, r) with
                  | Summary.Log, (Summary.Linear | Summary.Mantissa _)
                  | (Summary.Linear | Summary.Mantissa _), Summary.Log ->
                      emit
                        (Printf.sprintf
                           "%s adds/subtracts %s and %s operands; convert \
                            explicitly (Logspace.to_float or \
                            Logspace.log_checked) before mixing domains"
                           func.Summary.f_name (describe l) (describe r))
                  | _ -> ())
              | Summary.Dom_exp -> (
                  match l with
                  | Summary.Linear ->
                      emit
                        (Printf.sprintf
                           "%s exponentiates a value that is already \
                            linear-domain (double exp); the operand must be \
                            a log-domain magnitude"
                           func.Summary.f_name)
                  | _ -> ())
              | Summary.Dom_cmp -> (
                  match (l, r) with
                  | Summary.Mantissa a, Summary.Mantissa b
                    when not (String.equal a b) ->
                      emit
                        (Printf.sprintf
                           "%s orders rescaled mantissas from different \
                            profiles (%s vs %s); their implicit rescale \
                            exponents differ, so compare true magnitudes \
                            (undo the profile scale) instead"
                           func.Summary.f_name a b)
                  | _ -> ()))
            func.Summary.domain_sites)
        file.Summary.funcs)
    files;
  (List.rev !out, !iterations)

let analyse ~(config : Lint.Config.t) files =
  let enabled rule = Lint.Config.enabled config rule in
  let resolve = Callgraph.resolver files in
  let r12, raise_iterations =
    if enabled Rule.R12 then r12_findings ~config resolve files else ([], 0)
  in
  let r13, domain_iterations =
    if enabled Rule.R13 then r13_findings resolve files else ([], 0)
  in
  { r12; r13; raise_iterations; domain_iterations }
