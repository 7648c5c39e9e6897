(** The closure-capture fixpoint: the global half of R10 and of R9's
    higher-order closure.

    Per-file summaries ({!Summary.lambda}, {!Summary.callsite}) record
    which lambdas exist, what mutable state each captures, and where
    lambdas or function parameters are forwarded.  This module runs a
    fixpoint over those summaries to learn, for every function parameter
    position, whether a closure passed there eventually reaches

    - a configured domain boundary ([r10_sinks]: [Pool.run],
      [Domain.spawn], ...) — the {e sink} facts; or
    - a configured lock wrapper ([r9_lock_wrappers]: [Mutex.protect],
      [locked], ...) — the {e wrapper} facts.

    Sink facts raise R10 findings: a lambda argument at a sink position
    whose capture list is non-empty (after removing names declared safe
    by a [(* lint: guarded=... *)] directive at the call site) is a
    domain-escape race, reported with the capture chain and the
    forwarding witness ("spawn_all -> Pool.run") in the message.

    Wrapper facts flow the other way: the [(file, lambda id)] set they
    prove locked feeds {!Callgraph.findings}, so a write inside a callback
    stored-then-invoked under [Mutex.protect] — which purely lexical
    lock tracking reports as unlocked — is recognised as guarded.

    Like {!Callgraph}, the pass costs one walk over summaries already in
    memory; the per-file extraction behind them is the expensive step. *)

type result = {
  r10 : Crossbar_lint.Finding.t list;
      (** R10 findings, guarded-directive-filtered but not yet through
          the per-line [disable=] suppression filter (the driver's job) *)
  locked_lambdas : (string * int, unit) Hashtbl.t;
      (** [(file path, lambda id)] proven to run under a lock wrapper *)
  iterations : int;
      (** passes the escape fixpoint needed to stabilise, for [--stats] *)
}

val analyse :
  config:Crossbar_lint.Config.t ->
  guarded:(path:string -> line:int -> string list) ->
  Summary.file list ->
  result
(** [analyse ~config ~guarded files] runs the escape fixpoint.  [guarded]
    reports the capture names a [guarded=] suppression directive declares
    safe at a given source line (the driver backs it with
    {!Crossbar_lint.Suppress.guarded} over the scanned sources). *)
