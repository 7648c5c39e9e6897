(* One CROSSBAR_DOMAINS reading serves the whole tree: the pool and the
   banded combine kernel inside Crossbar.Convolution resolve their width
   through the same module, so an override scales both fan-outs. *)
let recommended_domains () = Crossbar.Domains.recommended ()

let run ?domains ~tasks f =
  if tasks < 0 then
    invalid_arg (Printf.sprintf "Pool.run: tasks=%d is negative" tasks);
  let domains =
    match domains with
    | None -> recommended_domains ()
    | Some d when d < 1 ->
        invalid_arg (Printf.sprintf "Pool.run: domains=%d < 1" d)
    | Some d -> d
  in
  let workers = min domains tasks in
  if workers <= 1 then Array.init tasks f
  else begin
    let results = Array.make tasks None in
    (* One band per worker on the persistent band pool (see
       [Band_pool.run_tasks]).  Each [results] slot is written by exactly
       one task — the task counter hands out disjoint indices — and only
       read once every band has finished. *)
    (* lint: guarded=results — disjoint writes, read after every band *)
    Crossbar.Band_pool.run_tasks ~bands:workers ~tasks (fun i ->
        results.(i) <- Some (f i));
    Array.map
      (function Some value -> value | None -> assert false)
      results
  end
