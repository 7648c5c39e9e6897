(** The crossbar_serve wire protocol: line-delimited JSON.

    Each request is one JSON object on one line; each response is one
    JSON object on one line, carrying the request's [id] back (as the
    JSON value it parses to; see {!request}).  The full reference with
    examples lives in docs/SERVE.md.

    {!read_request} reads a line straight into a {!request}, with an
    index cursor and no {!Json.t} tree; only the id, the tree name, the
    weights and the changes are built.  A line it does not take whole (a
    [solve], any error, a string escape, a repeated key, a list or
    object id) goes through {!Json.of_string} and {!request_of_json},
    the only code that writes an error message.  Both paths read
    numbers through {!Crossbar_engine.Json.number}.

    Requests name a {e tree} — a solved factor tree the daemon holds
    hot under a client-chosen name — and either install/replace it
    ([solve]), re-solve it after a class-subset change ([delta], served
    in [O(#changed log R)] combines via
    {!Crossbar.Convolution.solve_delta}), or read answers off it
    ([blocking], [shadow_costs], [admit]) without any solving at all. *)

module Json = Crossbar_engine.Json
(** Transparent alias: ids are {!Crossbar_engine.Json} values, and
    lines the direct reader does not take parse into its documents. *)

type change = {
  class_index : int;
  alpha : float option;  (** new aggregate alpha, if present *)
  beta : float option;  (** new aggregate beta, if present *)
}
(** One class's parameter change in a [delta] request.  Omitted fields
    keep their current value; bandwidth/name/service-rate changes
    require a fresh [solve] (they change the factor shape or the cache
    identity in ways a delta cannot express). *)

type query =
  | Solve of { tree : string; model : Crossbar.Model.t }
      (** Solve [model] and hold it hot as [tree] (replacing any
          previous tree of that name; if the previous tree is
          delta-compatible, the solve itself reuses it). *)
  | Delta of { tree : string; changes : change list }
      (** Apply [changes] to the named hot tree and re-solve
          incrementally. *)
  | Blocking of { tree : string }  (** Per-class blocking read. *)
  | Shadow_costs of { tree : string; weights : float array }
      (** All [R] shadow costs and the weighted revenue, from the
          already-solved diagonal. *)
  | Admit of { tree : string; class_index : int; weights : float array }
      (** Revenue-positive admission decision for one class: admit iff
          the class's weight covers its shadow cost. *)
  | Stats  (** Telemetry/registry snapshot. *)
  | Shutdown  (** Answer, flush, stop the daemon. *)

type request = { id : Json.t; query : query }
(** [id] is any JSON value the client chooses; the response carries it
    back as the value it parses to, written compactly.  Integers,
    strings, booleans and [null] read back equal; a non-integer number
    comes back as [%.17g] of its double ([1.5e-7] as
    [1.4999999999999999e-07]), and one past the double range as
    [null].  Clients that match replies to requests should use integer
    or string ids. *)

val read_request : string -> (request, Json.t * string) result
(** Read one wire line.  On error: the id salvaged from the line (its
    [id] field when the line is a well-formed JSON object that has one,
    [Json.Null] otherwise) and a message suitable for an error response
    body. *)

val request_of_line : string -> (request, string) result
(** {!read_request} without the salvaged id. *)

val request_of_json : Json.t -> (request, string) result
(** As {!request_of_line}, from an already-parsed document. *)

val request_to_json : request -> Json.t
(** Inverse of {!request_of_json}. *)

val request_to_line : request -> string
(** Compact one-line rendering (no embedded newline) — what clients and
    the load generator put on the wire. *)

val model_to_json : Crossbar.Model.t -> Json.t
(** The [model] object of a [solve] request. *)

val model_of_json : Json.t -> (Crossbar.Model.t, string) result
(** Inverse of {!model_to_json}; the error names the offending field. *)

val measures_to_json : Crossbar.Measures.t -> Json.t
(** The [measures] block of a solve/delta response as a document:
    {!write_response} writes the same fields in the same order. *)

type solved = {
  tree : string;
  from_hot : bool;  (** the solve rode the tree already hot under [tree] *)
  tree_combines : int;
  banded_combines : int;
  log_g : float;  (** [log G(N)] *)
  measures : Crossbar.Measures.t;
}
(** What a [solve] or [delta] response reports of the tree it left hot. *)

(** A response, as the handler computed it: one case per op, written
    as [{"id":id,"ok":true,"op":op,...}], and [Failed], written as
    [{"id":id,"ok":false,"error":message}].  {!write_response} puts the
    fields on the wire in the order docs/SERVE.md lists them. *)
type response =
  | Solve_ok of { id : Json.t; solved : solved }
  | Delta_ok of { id : Json.t; solved : solved; changed_classes : int list }
      (** [changed_classes]: the classes whose rates the delta moved *)
  | Blocking_ok of {
      id : Json.t;
      tree : string;
      classes : Crossbar.Measures.per_class array;
          (** written as name, blocking and non-blocking per class *)
    }
  | Shadow_costs_ok of {
      id : Json.t;
      tree : string;
      revenue : float;
      shadow_costs : float array;
    }
  | Admit_ok of {
      id : Json.t;
      tree : string;
      class_index : int;
      admit : bool;
      weight : float;
      shadow_cost : float;
      net_gain : float;
    }
  | Stats_ok of { id : Json.t; fields : (string * Json.t) list }
      (** telemetry and registry snapshots, written as they come *)
  | Shutdown_ok of { id : Json.t }
  | Failed of { id : Json.t; message : string }

val error_response : id:Json.t -> string -> response
(** [Failed { id; message }].  Parse failures use [Json.Null] as the
    id. *)

val write_response : Buffer.t -> response -> unit
(** Append the response's one-line JSON text (no newline) to the
    buffer.  Floats go through {!Crossbar_engine.Json.add_float}, so
    they read back bit for bit, and non-finite values are [null]. *)

val response_to_line : response -> string
(** {!write_response} into a fresh buffer. *)

val op_name : query -> string
(** The wire [op] tag: ["solve"], ["delta"], ... *)

val tree_name : query -> string option
(** The tree a query targets; [None] for [Stats]/[Shutdown]. *)
