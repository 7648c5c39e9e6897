(* Hot-tree query daemon for the asynchronous multi-rate crossbar.

   Holds solved factor trees resident and answers line-delimited JSON
   queries (docs/SERVE.md) over stdin/stdout and, with --socket, a
   Unix-domain socket.

   Example:
     echo '{"id":1,"op":"solve","tree":"t","model":{...}}' | crossbar_serve *)

open Cmdliner

(* [--domains] is parsed and dropped: see [domains_arg]. *)
let serve socket capacity (_ : int option) batch_limit =
  match
    (* A client that disconnects mid-write must not kill the daemon;
       write failures are handled per-connection instead. *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    Crossbar_serve.Server.run
      ~config:
        {
          Crossbar_serve.Server.socket_path = socket;
          capacity;
          batch_limit;
        }
      ~input:Unix.stdin ~output:Unix.stdout ()
  with
  | () -> `Ok ()
  | exception Invalid_argument message -> `Error (false, message)
  | exception Unix.Unix_error (code, fn, arg) ->
      `Error
        ( false,
          Printf.sprintf "%s %s: %s" fn arg (Unix.error_message code) )

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Also accept clients on a Unix-domain socket at $(docv) (created \
           at startup, removed on shutdown).")

let capacity_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "capacity" ] ~docv:"N"
        ~doc:
          "Keep at most $(docv) solved trees resident (least recently used \
           evicted first).  Default: unbounded.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~deprecated:"it is ignored and will be removed."
        ~doc:
          "Ignored.  Every batch is served in arrival order on the \
           daemon's own domain; banded combines inside a solve split into \
           CROSSBAR_DOMAINS bands, else one per recommended domain.")

let batch_limit_arg =
  Arg.(
    value & opt int 256
    & info [ "batch-limit" ] ~docv:"N"
        ~doc:"Serve at most $(docv) queued requests as one batch.")

let cmd =
  let doc = "hot-tree query daemon for the asynchronous multi-rate crossbar" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reads one JSON request per line, writes one JSON response per \
         line, and keeps every solved factor tree hot: a $(b,delta) \
         against a resident tree recombines only the changed classes' \
         root-to-leaf paths, and reads ($(b,blocking), \
         $(b,shadow_costs), $(b,admit)) are answered off the resident \
         diagonal with no solve at all.  Requests queued while a batch \
         is served are served together as the next batch, inline, in \
         arrival order.  See docs/SERVE.md for the protocol.";
    ]
  in
  Cmd.v
    (Cmd.info "crossbar_serve" ~doc ~man)
    Term.(
      ret
        (const serve $ socket_arg $ capacity_arg $ domains_arg
       $ batch_limit_arg))

let () = exit (Cmd.eval cmd)
