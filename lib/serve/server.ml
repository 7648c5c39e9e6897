module Json = Crossbar_engine.Json
module Telemetry = Crossbar_engine.Telemetry

type config = {
  socket_path : string option;
  capacity : int option;
  domains : int option;
  batch_limit : int;
  pipelined : bool;
}

let default_config =
  {
    socket_path = None;
    capacity = None;
    domains = None;
    batch_limit = 256;
    pipelined = true;
  }

module Lines = struct
  type t = { mutable carry : string; mutable discarding : bool }
  type line = Line of string | Overlong

  let max_bytes = 1 lsl 20
  let create () = { carry = ""; discarding = false }
  let pending t = String.length t.carry

  (* Split [t.carry ^ chunk] into complete lines.  The trailing partial
     line becomes the new carry while it fits; past [max_bytes] it is
     answered once and its bytes are dropped through its newline, so the
     carry (and the copy it costs per read) never outgrows the limit. *)
  let push t chunk =
    let pieces = String.split_on_char '\n' (t.carry ^ chunk) in
    t.carry <- "";
    let rec split acc = function
      | [] -> List.rev acc
      | [ partial ] ->
          if t.discarding then List.rev acc
          else if String.length partial > max_bytes then begin
            t.discarding <- true;
            List.rev (Overlong :: acc)
          end
          else begin
            t.carry <- partial;
            List.rev acc
          end
      | line :: rest ->
          if t.discarding then begin
            (* The tail of an overlong line, already answered. *)
            t.discarding <- false;
            split acc rest
          end
          else if String.length line > max_bytes then
            split (Overlong :: acc) rest
          else if String.equal (String.trim line) "" then split acc rest
          else split (Line line :: acc) rest
    in
    split [] pieces

  let finish t =
    let last = String.trim t.carry in
    t.carry <- "";
    t.discarding <- false;
    if String.equal last "" then None else Some last
end

(* One input stream: the primary input or an accepted socket client.
   [lines] holds the partial line between reads. *)
type conn = {
  fd : Unix.file_descr;
  out : Unix.file_descr;
  lines : Lines.t;
  mutable open_ : bool;
  primary : bool;  (** the input/output pair given to [run] *)
}

type item = Request of Protocol.request | Malformed of Json.t * string

(* Write the whole string; false if the peer is gone.  A client that
   disconnects mid-response is its own problem: the daemon drops the
   connection and keeps serving everyone else. *)
let write_all fd text =
  let bytes = Bytes.of_string text in
  let total = Bytes.length bytes in
  let rec loop offset =
    if offset >= total then true
    else
      match Unix.write fd bytes offset (total - offset) with
      | written -> loop (offset + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop offset
      | exception
          Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
        ->
          false
  in
  loop 0

let write_response conn response =
  if not (write_all conn.out (Protocol.response_to_line response ^ "\n")) then
    conn.open_ <- false

let parse_line line =
  match Protocol.request_of_line line with
  | Ok request -> Request request
  | Error message ->
      (* Salvage the id when the line was at least well-formed JSON, so
         the client can correlate the error with its request. *)
      let id =
        match Json.of_string line with
        | Ok json -> (
            match Json.member "id" json with Some id -> id | None -> Json.Null)
        | Error _ -> Json.Null
      in
      Malformed (id, message)

let overlong_message =
  Printf.sprintf "request line longer than %d bytes" Lines.max_bytes

let item_of_line = function
  | Lines.Line line -> parse_line line
  | Lines.Overlong -> Malformed (Json.Null, overlong_message)

(* Read whatever is available; returns parsed items in arrival order.
   On EOF the remaining partial line (a final unterminated line) is parsed
   too, and the connection is marked closed. *)
let read_available conn =
  let chunk = Bytes.create 65536 in
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 ->
      conn.open_ <- false;
      Option.to_list (Option.map parse_line (Lines.finish conn.lines))
  | n ->
      List.map item_of_line (Lines.push conn.lines (Bytes.sub_string chunk 0 n))
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      conn.open_ <- false;
      []

let listen_socket path =
  (* A stale socket file from a previous run would make bind fail. *)
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  fd

let validate config =
  if config.batch_limit < 1 then
    invalid_arg
      (Printf.sprintf "Server.run: batch_limit=%d < 1" config.batch_limit);
  (match config.capacity with
  | Some c when c < 1 ->
      invalid_arg (Printf.sprintf "Server.run: capacity=%d < 1" c)
  | Some _ | None -> ());
  match config.domains with
  | Some d when d < 1 ->
      invalid_arg (Printf.sprintf "Server.run: domains=%d < 1" d)
  | Some _ | None -> ()

let run ?(config = default_config) ~input ~output () =
  validate config;
  let registry = Registry.create ?capacity:config.capacity () in
  let telemetry = Telemetry.create () in
  let executor =
    if config.pipelined then
      Some (Batcher.Pipeline.start ?domains:config.domains ~registry ~telemetry ())
    else None
  in
  let pipeline_descriptor =
    Option.map Batcher.Pipeline.descriptor executor
  in
  let is_pipeline fd =
    match pipeline_descriptor with Some p -> p = fd | None -> false
  in
  (* The batch the pipeline worker is currently executing, kept so its
     responses can be routed back to each request's connection. *)
  let inflight : (conn * item) array option ref = ref None in
  let listen =
    Option.map (fun path -> (listen_socket path, path)) config.socket_path
  in
  let primary =
    {
      fd = input;
      out = output;
      lines = Lines.create ();
      open_ = true;
      primary = true;
    }
  in
  let conns = ref [ primary ] in
  let pending : (conn * item) Queue.t = Queue.create () in
  (* Pop the oldest [batch_limit] pending items as one batch. *)
  let take_batch () =
    let size = min config.batch_limit (Queue.length pending) in
    Array.init size (fun _ -> Queue.pop pending)
  in
  (* The well-formed requests of a batch, each with its batch index —
     deterministic in the batch, so dispatch and respond can both
     derive it. *)
  let requests_of batch =
    let request_indices =
      Array.to_list
        (Array.mapi
           (fun i (_, item) ->
             match item with
             | Request r -> Some (i, r)
             | Malformed _ -> None)
           batch)
    in
    List.filter_map Fun.id request_indices
  in
  let respond batch (outcome : Batcher.outcome) =
    let by_batch_index = Hashtbl.create 16 in
    List.iteri
      (fun k (i, _) ->
        Hashtbl.replace by_batch_index i outcome.Batcher.responses.(k))
      (requests_of batch);
    Array.iteri
      (fun i (conn, item) ->
        let response =
          match item with
          | Malformed (id, message) -> Protocol.error_response ~id message
          | Request _ -> Hashtbl.find by_batch_index i
        in
        write_response conn response)
      batch;
    outcome.Batcher.shutdown
  in
  (* Serve a batch synchronously on this domain (the sequential mode,
     and the drain path once every input has closed). *)
  let flush_batch () =
    let batch = take_batch () in
    let requests = Array.of_list (List.map snd (requests_of batch)) in
    let outcome =
      Batcher.execute ?domains:config.domains ~registry ~telemetry requests
    in
    respond batch outcome
  in
  let dispatch pipeline =
    let batch = take_batch () in
    let requests = Array.of_list (List.map snd (requests_of batch)) in
    Batcher.Pipeline.submit pipeline requests;
    inflight := Some batch
  in
  let accept_client fd =
    match Unix.accept fd with
    | client, _ ->
        conns :=
          !conns
          @ [
              {
                fd = client;
                out = client;
                lines = Lines.create ();
                open_ = true;
                primary = false;
              };
            ]
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ()
  in
  (* Runs exactly once, as the [Fun.protect] finalizer around the loop:
     on the normal path every exit collects the pipeline's outcome
     first, and on an exception path [Pipeline.shutdown] itself waits
     out (and discards) whatever was in flight — either way the worker
     domain is joined and the pipe, listen socket and client fds are
     closed. *)
  let cleanup () =
    (match executor with
    | Some pipeline -> Batcher.Pipeline.shutdown pipeline
    | None -> ());
    (match listen with
    | Some (fd, path) ->
        Unix.close fd;
        (match Unix.unlink path with
        | () -> ()
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ())
    | None -> ());
    List.iter
      (fun conn -> if not conn.primary then Unix.close conn.fd)
      !conns
  in
  let rec loop () =
    (* Drop (and close) dead socket clients; the primary stream is never
       closed here — the caller owns its descriptors. *)
    let kept, dead = List.partition (fun c -> c.open_ || c.primary) !conns in
    List.iter (fun c -> Unix.close c.fd) dead;
    conns := kept;
    let live = List.filter (fun c -> c.open_) !conns in
    let watched =
      List.map (fun c -> c.fd) live
      @ (match listen with Some (fd, _) -> [ fd ] | None -> [])
      @
      match (pipeline_descriptor, !inflight) with
      | Some fd, Some _ -> [ fd ]
      | _ -> []
    in
    match watched with
    | [] ->
        (* Inputs exhausted, no socket to accept from, nothing in flight
           (the pipeline pipe is watched while a batch runs): drain
           synchronously and stop. *)
        if Queue.is_empty pending then ()
        else if flush_batch () then ()
        else loop ()
    | _ :: _ ->
        (* Block when idle or when a batch is in flight (nothing to do
           until input or the pipeline pipe wakes us); poll when a batch
           is queued and dispatchable, so every line that arrived while
           the previous batch was being read joins it. *)
        let timeout =
          if Queue.is_empty pending || Option.is_some !inflight then -1.0
          else 0.0
        in
        let readable, _, _ =
          match Unix.select watched [] [] timeout with
          | result -> result
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        (match listen with
        | Some (fd, _) when List.memq fd readable -> accept_client fd
        | Some _ | None -> ());
        List.iter
          (fun conn ->
            if List.memq conn.fd readable then
              List.iter
                (fun item -> Queue.push (conn, item) pending)
                (read_available conn))
          live;
        let nothing_more =
          not (List.exists (fun fd -> not (is_pipeline fd)) readable)
        in
        (* Collect a finished batch, hand the worker the next one, and
           only then serialize and write the finished batch's responses
           — so response writing overlaps the next batch's solves.  The
           single loop domain still writes batch N's responses before it
           can collect batch N+1, so each connection sees its responses
           in arrival order regardless. *)
        let shutdown_now =
          match (executor, !inflight) with
          | Some pipeline, Some batch when List.exists is_pipeline readable ->
              inflight := None;
              let outcome = Batcher.Pipeline.collect pipeline in
              if
                (not outcome.Batcher.shutdown)
                && (not (Queue.is_empty pending))
                && (nothing_more || Queue.length pending >= config.batch_limit)
              then dispatch pipeline;
              respond batch outcome
          | _ -> false
        in
        if shutdown_now then ()
        else if Queue.is_empty pending || Option.is_some !inflight then loop ()
        else if
          (* Flush once no more input is immediately available, or the
             batch cap is reached. *)
          nothing_more || Queue.length pending >= config.batch_limit
        then begin
          match executor with
          | Some pipeline ->
              dispatch pipeline;
              loop ()
          | None -> if flush_batch () then () else loop ()
        end
        else loop ()
  in
  Fun.protect ~finally:cleanup loop
