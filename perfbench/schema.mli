(** The benchmark's metric catalogue and its one-line result format.

    The last line a run prints is one JSON object with exactly the keys
    [correct], [attempted], [failed] and [metrics]; [metrics] maps every
    metric of the run's kind — end-to-end for an untraced run, per-layer
    for a traced one — to [{"value": v, "unit": u}].  BENCHMARK.json
    lists the same names and units. *)

val end_to_end : (string * string) list
(** [(name, unit)] of every end-to-end metric, in report order. *)

val per_layer : (string * string) list
(** [(name, unit)] of every per-layer metric, in report order. *)

val result_line :
  correct:bool ->
  attempted:int ->
  failed:int ->
  catalogue:(string * string) list ->
  (string * float) list ->
  string
(** Render the result object.  Every name of [catalogue] must have
    exactly one value, and every value must be finite.
    @raise Invalid_argument on a missing, duplicate, unknown or
    non-finite metric. *)

val check_line : catalogue:(string * string) list -> string -> (unit, string) result
(** Validate a result line against [catalogue]: exact top-level keys,
    a boolean [correct], whole [attempted >= 1] and [0 <= failed <=
    attempted], and exactly the catalogue's metrics with their units and
    numeric values. *)
