module Json = Crossbar_engine.Json
module Memo = Crossbar_engine.Cache.Memo
module Model = Crossbar.Model
module Convolution = Crossbar.Convolution

type entry = { model : Model.t; solved : Convolution.t }

type t = {
  memo : entry Memo.t;
  capacity : int option;
  (* Capacity evictions are parked here (with their name) rather than
     recycled inline: the Memo callback fires on whichever domain
     triggered the displacement, possibly while batch workers still
     read the evicted tree.  [recycle_evicted] drains the list at a
     quiescent point, where the name decides whether the parked tree is
     actually dead (see below). *)
  evicted_lock : Mutex.t;
  evicted : (string * entry) list ref;
  (* Names [remove]d since the last drain, under [evicted_lock]: their
     parked trees, if any, are dropped at drain, never recycled. *)
  removed : string list ref;
}

let create ?capacity () =
  let evicted_lock = Mutex.create () in
  let evicted = ref [] in
  let on_evict name entry =
    Mutex.lock evicted_lock;
    evicted := (name, entry) :: !evicted;
    Mutex.unlock evicted_lock
  in
  {
    memo = Memo.create ?capacity ~on_evict ();
    capacity;
    evicted_lock;
    evicted;
    removed = ref [];
  }

let remove t name =
  Memo.remove t.memo name;
  Mutex.lock t.evicted_lock;
  t.removed := name :: !(t.removed);
  Mutex.unlock t.evicted_lock

let recycle_evicted t =
  let drained, removed =
    Mutex.lock t.evicted_lock;
    let drained = !(t.evicted) and removed = !(t.removed) in
    t.evicted := [];
    t.removed := [];
    Mutex.unlock t.evicted_lock;
    (drained, removed)
  in
  (* An eviction can race a concurrent install/delta of the same name:
     the Memo displaces tree Y between another group's [find Y] and its
     [replace], so by drain time Y is resident again and the parked
     pre-delta tree shares unchanged nodes with the live one (and
     [solve_delta ~recycle:true] already released its superseded
     nodes).  Recycling it would push live and duplicate lattices into
     the arena free lists, corrupting later solves — so a parked entry
     is only recycled when its name is dead at drain time.  Same logic
     keeps only the newest parked entry per name ([drained] is
     newest-first): an older parked generation shares nodes with every
     newer one built from it by delta.  Dropped entries leak at worst
     (names shard trees — no cross-name sharing), never corrupt.  A
     [remove]d name counts as seen from the start: a failed re-solve may
     have recycled part of the tree its eviction parked. *)
  let seen = Hashtbl.create 8 in
  List.iter (fun name -> Hashtbl.replace seen name ()) removed;
  List.fold_left
    (fun recycled (name, { solved; _ }) ->
      if Hashtbl.mem seen name then recycled
      else begin
        Hashtbl.add seen name ();
        if Memo.mem t.memo name then recycled
        else begin
          Convolution.recycle solved;
          recycled + 1
        end
      end)
    0 drained

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
           again (names shard trees — no cross-name sharing). *)
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
let capacity t = t.capacity

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
