module Json = Crossbar_engine.Json
module Telemetry = Crossbar_engine.Telemetry

type config = {
  socket_path : string option;
  capacity : int option;
  domains : int option;
  batch_limit : int;
}

let default_config =
  {
    socket_path = None;
    capacity = None;
    domains = None;
    batch_limit = 256;
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
   [lines] holds the partial line between reads.  [chunk] (every read
   lands in it) and [reply] (each response is written into it, cleared
   in between) are allocated once per connection. *)
type conn = {
  fd : Unix.file_descr;
  out : Unix.file_descr;
  lines : Lines.t;
  chunk : Bytes.t;
  reply : Buffer.t;
  mutable open_ : bool;
  primary : bool;  (** the input/output pair given to [run] *)
}

let connection ~fd ~out ~primary =
  {
    fd;
    out;
    lines = Lines.create ();
    chunk = Bytes.create 65536;
    reply = Buffer.create 4096;
    open_ = true;
    primary;
  }

type item = Request of Protocol.request | Malformed of Json.t * string

(* Write all of [bytes]; false if the peer is gone.  A client that
   disconnects mid-response is its own problem: the daemon drops the
   connection and keeps serving everyone else. *)
let write_all fd bytes =
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

(* One write per response, as soon as it is ready: the client reads
   each answer while the rest of the batch is written. *)
let send conn response =
  let reply = conn.reply in
  Buffer.clear reply;
  Protocol.write_response reply response;
  Buffer.add_char reply '\n';
  if not (write_all conn.out (Buffer.to_bytes reply)) then conn.open_ <- false

let parse_line line =
  match Protocol.read_request line with
  | Ok request -> Request request
  | Error (id, message) -> Malformed (id, message)

let overlong_message =
  Printf.sprintf "request line longer than %d bytes" Lines.max_bytes

let item_of_line = function
  | Lines.Line line -> parse_line line
  | Lines.Overlong -> Malformed (Json.Null, overlong_message)

(* Read whatever is available; returns parsed items in arrival order.
   On EOF the remaining partial line (a final unterminated line) is parsed
   too, and the connection is marked closed. *)
let read_available conn =
  let chunk = conn.chunk in
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
  let listen =
    Option.map (fun path -> (listen_socket path, path)) config.socket_path
  in
  let primary = connection ~fd:input ~out:output ~primary:true in
  let conns = ref [ primary ] in
  let pending : (conn * item) Queue.t = Queue.create () in
  (* Serve the oldest [batch_limit] pending items as one batch, on this
     domain, and write each response to its own connection in arrival
     order; true once the batch held a [shutdown]. *)
  let flush_batch () =
    let size = min config.batch_limit (Queue.length pending) in
    let batch = Array.init size (fun _ -> Queue.pop pending) in
    let requests =
      Array.of_list
        (List.filter_map
           (fun (_, item) ->
             match item with Request r -> Some r | Malformed _ -> None)
           (Array.to_list batch))
    in
    let outcome =
      Batcher.execute ?domains:config.domains ~registry ~telemetry requests
    in
    (* [responses] is index-aligned with [requests]: walk it in step
       with the batch's well-formed items. *)
    let next = ref 0 in
    Array.iter
      (fun (conn, item) ->
        let response =
          match item with
          | Malformed (id, message) -> Protocol.error_response ~id message
          | Request _ ->
              incr next;
              outcome.Batcher.responses.(!next - 1)
        in
        send conn response)
      batch;
    outcome.Batcher.shutdown
  in
  let accept_client fd =
    match Unix.accept fd with
    | client, _ ->
        conns := !conns @ [ connection ~fd:client ~out:client ~primary:false ]
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ()
  in
  (* Runs exactly once, as the [Fun.protect] finalizer around the loop:
     the listen socket and every client fd are closed however the loop
     ends. *)
  let cleanup () =
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
      @ match listen with Some (fd, _) -> [ fd ] | None -> []
    in
    match watched with
    | [] ->
        (* Inputs exhausted and no socket to accept from: drain and
           stop. *)
        if Queue.is_empty pending then ()
        else if flush_batch () then ()
        else loop ()
    | _ :: _ ->
        (* Block when idle; poll when a batch is queued, so every line
           that arrived while the previous batch was served joins it. *)
        let timeout = if Queue.is_empty pending then -1.0 else 0.0 in
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
        (* Flush once no more input is immediately available, or the
           batch cap is reached. *)
        let flush =
          (not (Queue.is_empty pending))
          && (readable = [] || Queue.length pending >= config.batch_limit)
        in
        if flush && flush_batch () then () else loop ()
  in
  Fun.protect ~finally:cleanup loop
