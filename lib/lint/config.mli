(** Linter configuration: which rules run, where each rule applies, and the
    allowlists that make the rule set practical.  Paths are matched by
    directory-prefix (["lib/core"] covers ["lib/core/model.ml"] but not
    ["lib/core_ext/x.ml"]).

    The whole policy round-trips through the engine's JSON tree so it can
    live in a checked-in [lint.json] (schema ["crossbar-lint-config/1"])
    instead of being compiled in; {!load_file} falls back to {!default}
    when the file does not exist and errors loudly when it is malformed. *)

type pool_scope =
  | Reachable_from of string list
      (** R8 applies to every compilation unit transitively referenced from
          the files under these prefixes (the Domain-pool workers). *)
  | Paths of string list  (** R8 applies to files under these prefixes. *)

type t = {
  rules : Rule.id list;  (** Enabled rules; [Rule.Syntax] always runs. *)
  numerics_prefixes : string list;
      (** Exempt from R1 and R7 (e.g. lib/numerics). *)
  ordering_literals : float list;
      (** Float literals allowed as ordering-comparison operands everywhere
          (domain guards against 0., 1., -1. are exact in IEEE 754). *)
  r2_prefixes : string list;  (** Directories where R2 applies. *)
  r2_allowlist : string list;  (** Paths exempt from R2 despite the above. *)
  r2_banned : string list;  (** Dotted names R2 forbids (exp, Float.log, ...). *)
  pool_scope : pool_scope;
      (** The code pool workers can reach, where R8 applies. *)
  r4_prefixes : string list;  (** Directories where R4 applies. *)
  stdout_names : string list;  (** Dotted names R4 forbids. *)
  r6_prefixes : string list;  (** Directories where R6 applies. *)
  r8_sanctioned_types : string list;
      (** Type-constructor paths R8 never flags and never recurses into
          ([Atomic.t], [Mutex.t], ...): the sanctioned synchronisation
          primitives. *)
  r8_mutable_types : string list;
      (** Abstract type-constructor paths R8 treats as mutable
          ([Hashtbl.t], [Buffer.t], ...); arrays, [bytes], refs and records
          with [mutable] fields are detected structurally. *)
  r9_roots : string list;
      (** Files whose top-level functions seed the R9 typed call graph (the
          Domain-pool entry points). *)
  r9_lock_wrappers : string list;
      (** Functions whose function-literal arguments run under a lock
          ([Mutex.protect] and repo-local helpers such as [locked]); a
          bare name matches any path ending in that component. *)
  r10_sinks : string list;
      (** Domain-boundary functions: a closure passed to one of these (or
          to a function that forwards a parameter into one) runs on
          another domain.  Matched like [r9_lock_wrappers]: ["Pool.run"]
          covers [Crossbar_engine.Pool.run] and the mangled
          [Crossbar_engine__Pool.run] spelling alike. *)
  r10_guarded_types : string list;
      (** Type-constructor paths R10 treats as safely-shareable in
          addition to [r8_sanctioned_types]: the repo's mutex-guarded
          abstractions ([Telemetry.t], [Cache.Memo.t]).
          Captures of these types never need a [guarded=] annotation. *)
  r12_boundaries : string list;
      (** Functions whose function-literal arguments must not let a raise
          escape (R12): lock wrappers and pool/domain spawners.  Matched
          like [r10_sinks]. *)
  r13_log_producers : string list;
      (** Call patterns whose float result is a log-domain magnitude. *)
  r13_linear_producers : string list;
      (** Call patterns whose float result is a linear-domain value
          (probability/ratio after exponentiation). *)
  r13_mantissa_producers : string list;
      (** Call patterns whose float result is a rescaled mantissa whose
          implicit exponent belongs to the first argument (the profile);
          R13 flags ordering comparisons between mantissas drawn from
          different sources. *)
  doc_coverage_threshold : float;
      (** Minimum fraction of documented [val] items scripts/doc_coverage.sh
          enforces over [doc_coverage_paths]. *)
  doc_coverage_paths : string list;
      (** Directories whose [.mli] files the doc-coverage gate scans. *)
}

val default : t
(** The repository policy described in docs/LINT.md. *)

val enabled : t -> Rule.id -> bool
(** Whether the rule is on this config's [rules] list. *)

val normalize : string -> string
(** Strips ["./"] and duplicate separators; a leading ["/"] survives, so
    absolute paths stay openable. *)

val matches : string -> string list -> bool
(** [matches path prefixes] is true when [path] lies under one of
    [prefixes] (component-wise, after {!normalize}). *)

val to_json : t -> Crossbar_engine.Json.t
(** The checked-in [lint.json] document shape. *)

val of_json : Crossbar_engine.Json.t -> (t, string) result
(** Inverse of {!to_json}; fails with a message naming the offending field
    on schema or shape mismatch. *)

val load_file : string -> (t, string) result
(** [load_file path] is {!default} when [path] does not exist, the parsed
    config when it holds a valid document, and an error mentioning [path]
    otherwise. *)
