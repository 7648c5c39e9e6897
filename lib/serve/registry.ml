module Json = Crossbar_engine.Json
module Memo = Crossbar_engine.Cache.Memo
module Model = Crossbar.Model
module Convolution = Crossbar.Convolution

type entry = { model : Model.t; solved : Convolution.t }

type t = { memo : entry Memo.t; capacity : int option }

(* The batcher serves every batch on one domain, so an eviction runs
   where nothing else reads the displaced tree: its lattices go straight
   back to the arenas. *)
let create ?capacity () =
  let on_evict _ entry = Convolution.recycle entry.solved in
  { memo = Memo.create ?capacity ~on_evict (); capacity }

let remove t name = Memo.remove t.memo name

let find t name = Memo.find t.memo name
let replace t ~name entry = Memo.set t.memo name entry

let install t ~name model =
  (* The lookup counts toward hit/miss statistics like any other: a
     warm install that reuses the resident tree is exactly the reuse
     the counters are meant to expose. *)
  let previous = Memo.find t.memo name in
  let solved, from_hot =
    match previous with
    | Some { solved = previous; _ }
      when Option.is_some (Model.class_delta (Convolution.model previous) model)
      ->
        (* [solve_delta ~recycle:true] returns the previous tree's
           superseded lattices to the arenas as it rebuilds; the old
           entry is dropped by [Memo.set] below, so nothing reads it
           again (no two names share a tree). *)
        (Convolution.solve_delta ~recycle:true ~previous model, true)
    | Some { solved = previous; _ } ->
        (* Shape-changed reinstall: the resident tree is unreachable
           once replaced, so its lattices can seed the fresh solve. *)
        Convolution.recycle previous;
        (Convolution.solve model, false)
    | None -> (Convolution.solve model, false)
  in
  let entry = { model; solved } in
  Memo.set t.memo name entry;
  (entry, from_hot)

let size t = Memo.size t.memo

let stats_json t =
  Json.Assoc
    [
      ("entries", Json.Int (Memo.size t.memo));
      ( "capacity",
        match t.capacity with Some c -> Json.Int c | None -> Json.Null );
      ("hits", Json.Int (Memo.hits t.memo));
      ("misses", Json.Int (Memo.misses t.memo));
      ("evictions", Json.Int (Memo.evictions t.memo));
    ]
