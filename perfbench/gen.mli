(** Seeded workload generation.  Every input a run sends or solves is
    built here, before anything is timed; the same seed and op count give
    the same bytes and the same models. *)

type conversation = {
  install : string array;  (** set-up request lines, sent as one burst *)
  warmup : string array array;  (** set-up windows, driven like the timed ones *)
  windows : string array array;
      (** timed windows of request lines; each window's bytes fit one
          atomic pipe write *)
}

type plans = {
  warmup_plans : Crossbar_engine.Sweep.point list array;
      (** set-up plans, run before the timed ones *)
  timed_plans : Crossbar_engine.Sweep.point list array;
}

type ops =
  | Serve of conversation  (** driven through the daemon *)
  | Plan of plans  (** swept in process *)

type t = {
  name : string;
  ops : ops;
  shapes : Crossbar.Model.t list;
      (** one model per switch shape the workload solves *)
  weights : float array;  (** revenue weights for the shadow-cost probe *)
  trace_ops : int;  (** windows or plans a traced run replays *)
}

val names : string list
(** ["serve-admit"; "plan-sweep"]. *)

val generate : workload:string -> seed:int -> seconds:int -> t
(** The ops of a run of [seconds] seconds on the reference host (a
    fixed count per second of run, never a time-boxed loop).
    @raise Invalid_argument on an unknown workload name. *)

val window_bytes : string array -> string
(** The request lines of a window as one newline-terminated write. *)
