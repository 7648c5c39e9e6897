(** Interprocedural effect and float-domain analysis (stage three): the
    global half of R12/R13 over the per-file effect summaries.

    Like {!Callgraph} and {!Capture}, this stage is cheap: the two
    closures here are graph walks over summaries already in memory —

    - {b R12}: a fixpoint over the escaping-raise effect (a function
      raises at body level, or calls one that does), then a check that no
      lambda handed to a configured [r12_boundaries] function carries the
      effect — a mid-boundary exception unwinds with locks released but
      shared state half-written;
    - {b R13}: a fixpoint resolving every function's return domain
      through [DCall] references, then a judgment of each recorded
      candidate site: log+linear addition, re-exponentiation of an
      already-linear value, and ordering comparisons between rescaled
      mantissas of different profiles. *)

type result = {
  r12 : Crossbar_lint.Finding.t list;
  r13 : Crossbar_lint.Finding.t list;
  raise_iterations : int;
      (** passes the R12 escape fixpoint needed to stabilise (0 when R12
          is disabled) *)
  domain_iterations : int;
      (** passes the R13 return-domain fixpoint needed to stabilise (0
          when R13 is disabled) *)
}

val analyse : config:Crossbar_lint.Config.t -> Summary.file list -> result
(** Unsuppressed R12/R13 findings for the whole program described by the
    summaries; each rule runs only when enabled in [config]. *)
