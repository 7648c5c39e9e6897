(** The crossbar_serve daemon loop.

    Serves the line-delimited JSON protocol ({!Protocol}, docs/SERVE.md)
    over a caller-supplied input/output pair — the CLI passes
    stdin/stdout — and, optionally, a Unix-domain socket accepting any
    number of concurrent clients.

    Batching: the loop blocks until at least one request is readable,
    then drains every complete line already buffered on any connection
    (up to [batch_limit]) into one batch and serves it inline through
    {!Batcher.execute} before reading again.  Under load, queries pile
    up behind the batch being served and are served together off shared
    hot trees; an idle daemon answers single requests immediately.
    Responses are written back to each request's own connection, in
    arrival order per connection.  How lines group into batches never
    changes a response: a batch answers byte for byte as the same
    requests served one at a time. *)

(** Line framing for one connection, kept apart from the loop so its
    memory bound can be tested on its own. *)
module Lines : sig
  type t
  (** The partial line held between reads. *)

  type line =
    | Line of string  (** a complete, non-blank request line *)
    | Overlong
        (** a line longer than {!max_bytes}: answered with one
            malformed-line error, its bytes dropped through its newline *)

  val max_bytes : int
  (** 1 MiB: the longest request line the daemon buffers.  A fixed
      limit, not an option. *)

  val create : unit -> t
  (** An empty buffer. *)

  val push : t -> string -> line list
  (** [push t chunk] returns the lines [chunk] completes, in arrival
      order.  A line past {!max_bytes} yields exactly one [Overlong] at
      its position however the reads split it. *)

  val finish : t -> string option
  (** At end of input: the final unterminated line, trimmed, unless
      blank or part of an overlong line; empties [t]. *)

  val pending : t -> int
  (** Bytes held for the partial line; never above {!max_bytes}. *)
end

type config = {
  socket_path : string option;
      (** also serve a Unix-domain socket at this path (created at
          startup, unlinked on shutdown) *)
  capacity : int option;
      (** registry LRU capacity — resident hot trees ({!Registry.create}) *)
  domains : int option;
      (** most domains one batch's tree groups fan out over (default
          {!Crossbar_engine.Pool.recommended_domains}).  Only an unbounded
          registry fans out: with a [capacity], every batch is served in
          arrival order on the loop's domain, and an evicted tree is
          recycled at once ({!Batcher.execute}).  Banded combines follow
          [CROSSBAR_DOMAINS] or the core count instead *)
  batch_limit : int;  (** max requests served as one batch *)
}

val default_config : config
(** No socket, unbounded registry, default pool width,
    [batch_limit = 256]. *)

val run :
  ?config:config ->
  input:Unix.file_descr ->
  output:Unix.file_descr ->
  unit ->
  unit
(** Serve until a [shutdown] request arrives, or until [input] reaches
    end-of-file with no socket configured and no socket client still
    connected.  Never raises on malformed input or solver errors (they
    become [ok:false] responses); socket clients that disconnect
    mid-response are dropped silently.
    @raise Invalid_argument if [config] is inconsistent
    ([batch_limit < 1], [capacity < 1], [domains < 1]).
    @raise Unix.Unix_error if the socket path cannot be bound. *)
