(** Per-file interprocedural summary for the R9/R10 global passes: the
    top-level functions a compilation unit defines, the (unresolved) value
    paths each one references, every write it performs against top-level
    mutable state with its lock context, every lambda the function
    contains with its mutable captures, plus the call sites that hand
    lambdas (or the function's own parameters) to other functions.

    Extracting a summary means reading and walking the unit's [.cmt],
    which is the expensive step of the typed stage; the global fixpoints
    over all summaries ({!Callgraph} reachability, {!Capture} escape
    propagation, {!Effects} raise/domain closure) are cheap graph walks
    over the summaries held in memory. *)

type mutation = {
  m_line : int;
  m_col : int;
  target : string;  (** printable path of the mutated top-level value *)
  locked : bool;
      (** whether the write sits inside a function literal passed directly
          to a configured lock wrapper ([Mutex.protect], [locked], ...) *)
  m_lambda : int option;
      (** innermost enclosing lambda ([{!lambda.lam_id}]), if the write
          happens inside one; lets {!Capture}'s propagated lock facts
          retroactively mark the write locked when the lambda is proven
          to run under a wrapper through an indirect call *)
}

type capture = {
  c_name : string;  (** source name (locals) or dotted path (globals) *)
  c_line : int;
  c_col : int;  (** position of one capturing use inside the lambda *)
  c_reason : string;  (** mutability classification, e.g. ["an array"] *)
  c_via : string list;
      (** names of locally-bound closures stepped through when the capture
          is inherited (the lambda captures [bound], which captures the
          array) — the chain printed in the R10 message *)
}

type lambda = {
  lam_id : int;  (** unique within the file *)
  lam_line : int;
  lam_col : int;
  captures : capture list;
      (** only unsanctioned mutable captures are recorded; a lambda whose
          captures are all immutable or Atomic/Mutex-guarded lists none *)
}

type arg_kind =
  | Arg_param of int
      (** the caller forwards its own [i]-th parameter (only recorded for
          function-typed parameters — the higher-order case) *)
  | Arg_lambda of int  (** a lambda defined in this file, by [lam_id] *)
  | Arg_other

type callsite = {
  cs_line : int;
  cs_col : int;
  callee : string;  (** dotted path as resolved by the typechecker *)
  args : arg_kind list;  (** in application order, labels included *)
}

type raise_site = {
  r_line : int;
  r_col : int;
  r_exn : string;  (** constructor path, or ["<dynamic>"] *)
  r_lambdas : int list;
      (** the full stack of enclosing lambdas (outermost first); empty
          for a raise at function-body level.  Only raises outside any
          lexical [try]/exception-[match] scope are recorded *)
}

type eff_call = {
  e_name : string;  (** dotted callee path, unresolved *)
  e_line : int;
  e_col : int;
  e_lambdas : int list;  (** as {!raise_site.r_lambdas} *)
}

type domain = Linear | Log | Mantissa of string | DUnknown
(** The float-domain lattice.  [Mantissa src] is a rescaled mantissa whose
    implicit exponent belongs to the producer's first argument [src] (the
    profile expression, printed); two mantissas compare meaningfully only
    when their sources coincide. *)

type domexpr = Known of domain | DCall of string
(** A domain that may still depend on a callee's return domain: [DCall f]
    is resolved by the {!Effects} fixpoint once [f]'s summary is known. *)

type dom_op = Dom_add | Dom_exp | Dom_cmp

type domain_site = {
  d_line : int;
  d_col : int;
  d_op : dom_op;
  d_left : domexpr;
  d_right : domexpr;  (** [Known DUnknown] for the unary [Dom_exp] *)
}
(** A *candidate* cross-domain operation: recorded when the operands'
    domains could conflict pending call resolution, judged by {!Effects}. *)

type func = {
  f_name : string;
  f_line : int;
  f_col : int;
  calls : string list;
      (** dotted value paths referenced by the body, as resolved by the
          typechecker (e.g. ["Solver.solve_full"], ["locked"]); resolution
          to concrete functions happens in {!Callgraph} *)
  mutations : mutation list;
  lambdas : lambda list;
  callsites : callsite list;
      (** only call sites passing at least one [Arg_param]/[Arg_lambda]
          argument — the edges the {!Capture} fixpoint propagates over *)
  raises : raise_site list;
      (** unguarded explicit [raise]/[raise_notrace] sites *)
  eff_calls : eff_call list;
      (** unguarded non-Stdlib application sites, deduplicated per
          (callee, lambda stack) — the edges the R12 raise fixpoint
          propagates over *)
  domain_sites : domain_site list;  (** candidate R13 violations *)
  ret_domain : domexpr;
      (** domain of the value the function returns, [Known DUnknown]
          when mixed or undetermined *)
}

type file = { path : string; modname : string; funcs : func list }
