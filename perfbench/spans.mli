(** In-memory span log for the traced run.

    A span records one call into a layer: its name, start and end on the
    monotonic clock, the span that caused it, and the window (or plan)
    it belongs to.  Spans stay in memory while the run is timed and are
    written out once it ends. *)

type span = {
  id : int;
  name : string;
  parent : int option;  (** id of the enclosing span *)
  window : int;  (** window / plan id shared by every span of one op *)
  start_ns : int;
  stop_ns : int;
}

type t

val create : unit -> t

val record : t -> name:string -> window:int -> ?parent:int -> (int -> 'a) -> 'a
(** [record t ~name ~window ?parent f] runs [f id], where [id] names
    the new span (pass it as [?parent] to nest calls under it), and logs
    the span when [f] returns.  A raising [f] logs nothing. *)

val spans : t -> span list
(** Every logged span, in order of completion. *)

val self_ns : span list -> (span * int) list
(** Each span paired with its self time: its duration minus the part of
    its interval covered by its direct children (overlapping children
    counted once, children clipped to the parent's interval). *)

val totals : span list -> (string * int * int) list
(** Per span name: [(name, total self ns, span count)], sorted by
    name. *)

val to_jsonl : span list -> string
(** One JSON object per line: [id], [name], [parent] ([null] at a
    root), [window], [start_ns], [stop_ns]. *)
