(** A [crossbar_serve] child process driven over its stdin/stdout pipes.

    One generator thread multiplexes writes and reads with [select] on
    non-blocking pipes, so a burst larger than the pipe buffers cannot
    deadlock against a daemon that is blocked writing responses. *)

type t

val spawn : exe:string -> args:string list -> t
(** Start [exe args] with piped stdin/stdout (stderr inherited). *)

val pid : t -> int

val exchange :
  t -> string -> expect:int -> deadline:int -> on_line:(string -> int -> unit) -> int
(** [exchange t data ~expect ~deadline ~on_line] writes [data] — in one
    [write] whenever the pipe has room for it — and reads until
    [expect] response lines have arrived, calling [on_line line
    arrival_ns] for each (monotonic clock).  Returns the number of lines
    received: fewer than [expect] when the daemon closed its output or
    the monotonic clock passed [deadline] (ns). *)

val writes : t -> int
(** [write] calls made so far. *)

val vm_hwm_kb : int -> int option
(** Peak resident set ([VmHWM], kB) of a live process, from
    [/proc/PID/status]; [None] where unavailable. *)

val reap : t -> unit
(** Close the pipes and wait for the process to exit. *)

val stop : t -> deadline:int -> unit
(** Ask for [shutdown], close the pipes and reap the process — killing
    it if it has not answered by [deadline]. *)
