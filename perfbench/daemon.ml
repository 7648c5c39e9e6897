module Clock = Crossbar_engine.Clock

type t = {
  pid : int;
  input : Unix.file_descr;  (** the daemon's stdin *)
  output : Unix.file_descr;  (** the daemon's stdout *)
  chunk : Bytes.t;
  mutable carry : string;
  mutable writes : int;
}

let now () = Int64.to_int (Clock.now_ns ())

let spawn ~exe ~args =
  let child_in, input = Unix.pipe ~cloexec:true () in
  let output, child_out = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) child_in child_out Unix.stderr
  in
  Unix.close child_in;
  Unix.close child_out;
  Unix.set_nonblock input;
  Unix.set_nonblock output;
  { pid; input; output; chunk = Bytes.create 65536; carry = ""; writes = 0 }

let pid t = t.pid
let writes t = t.writes

(* Complete lines of [t.carry ^ chunk], keeping the unterminated tail. *)
let take_lines t n ~at on_line =
  let data = t.carry ^ Bytes.sub_string t.chunk 0 n in
  let rec split start count =
    match String.index_from_opt data start '\n' with
    | Some stop ->
        on_line (String.sub data start (stop - start)) at;
        split (stop + 1) (count + 1)
    | None ->
        t.carry <- String.sub data start (String.length data - start);
        count
  in
  split 0 0

let exchange t data ~expect ~deadline ~on_line =
  let length = String.length data in
  let sent = ref 0 and received = ref 0 and closed = ref false in
  let write () =
    match Unix.write_substring t.input data !sent (length - !sent) with
    | n ->
        t.writes <- t.writes + 1;
        sent := !sent + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) -> closed := true
  in
  if length > 0 then write ();
  while !received < expect && (not !closed) && now () < deadline do
    let writing = if !sent < length then [ t.input ] else [] in
    let timeout = float_of_int (deadline - now ()) /. 1e9 in
    match Unix.select [ t.output ] writing [] (Float.max 0. timeout) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        if writable <> [] then write ();
        if readable <> [] then begin
          match Unix.read t.output t.chunk 0 (Bytes.length t.chunk) with
          | 0 -> closed := true
          | n -> received := !received + take_lines t n ~at:(now ()) on_line
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
        end
  done;
  !received

let vm_hwm_kb pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; value ] ->
              int_of_string_opt (String.trim (List.hd (String.split_on_char 'k' value)))
          | _ -> None)
        (String.split_on_char '\n' status)

let reap t =
  Unix.close t.input;
  Unix.close t.output;
  let rec wait () =
    match Unix.waitpid [] t.pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

let stop t ~deadline =
  let answered =
    exchange t "{\"id\":\"shutdown\",\"op\":\"shutdown\"}\n" ~expect:1 ~deadline
      ~on_line:(fun _ _ -> ())
  in
  if answered < 1 then (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap t
