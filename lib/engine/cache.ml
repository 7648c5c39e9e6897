module Model = Crossbar.Model
module Traffic = Crossbar.Traffic
module Solver = Crossbar.Solver

type key = string

module Memo = struct
  type 'a entry = { value : 'a; mutable stamp : int }

  type 'a t = {
    mutex : Mutex.t;
    table : (key, 'a entry) Hashtbl.t;
    capacity : int option;
    on_evict : (key -> 'a -> unit) option;
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create ?capacity ?on_evict () =
    (match capacity with
    | Some c when c < 1 ->
        invalid_arg
          (Printf.sprintf "Cache.Memo.create: capacity=%d < 1" c)
    | Some _ | None -> ());
    {
      mutex = Mutex.create ();
      table = Hashtbl.create 64;
      capacity;
      on_evict;
      tick = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
    }

  let locked t f =
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

  (* Both called with the lock held. *)
  let touch t entry =
    t.tick <- t.tick + 1;
    entry.stamp <- t.tick

  let evict_lru t =
    (* O(size) scan for the stalest stamp; the table never exceeds
       [capacity] entries, so bounded tables pay a bounded scan and
       unbounded ones never reach here.  Returns the victim so callers
       can notify [on_evict] after the lock is released. *)
    let victim =
      Hashtbl.fold
        (fun key entry acc ->
          match acc with
          | Some (_, held) when held.stamp <= entry.stamp -> acc
          | Some _ | None -> Some (key, entry))
        t.table None
    in
    match victim with
    | Some (key, entry) ->
        Hashtbl.remove t.table key;
        t.evictions <- t.evictions + 1;
        Some (key, entry.value)
    | None -> None

  (* Called with the lock held; accumulates victims (oldest first once
     reversed by [notify_evicted]). *)
  let rec evict_over_capacity t acc =
    match t.capacity with
    | Some c when Hashtbl.length t.table >= c -> (
        match evict_lru t with
        | Some victim -> evict_over_capacity t (victim :: acc)
        | None -> acc)
    | Some _ | None -> acc

  (* Called after the lock is released: a callback that re-enters the
     memo (or takes its own locks) cannot deadlock against [t.mutex]. *)
  let notify_evicted t victims =
    match t.on_evict with
    | None -> ()
    | Some f -> List.iter (fun (key, value) -> f key value) (List.rev victims)

  let find_or_compute t key f =
    (* Lookup and hit-count under one lock acquisition so a concurrent
       reader never observes a hit whose counter has not landed yet. *)
    let cached =
      locked t (fun () ->
          match Hashtbl.find_opt t.table key with
          | Some entry ->
              t.hits <- t.hits + 1;
              touch t entry;
              Some entry.value
          | None -> None)
    in
    match cached with
    | Some value -> (value, true)
    | None ->
        (* Compute outside the lock: misses on distinct keys stay parallel.
           Two domains racing on the same key both compute (callers supply
           deterministic functions) and the first insert wins. *)
        let value = f () in
        let victims =
          locked t (fun () ->
              t.misses <- t.misses + 1;
              if not (Hashtbl.mem t.table key) then begin
                let victims = evict_over_capacity t [] in
                t.tick <- t.tick + 1;
                Hashtbl.add t.table key { value; stamp = t.tick };
                victims
              end
              else [])
        in
        notify_evicted t victims;
        (value, false)

  let find t key =
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some entry ->
            t.hits <- t.hits + 1;
            touch t entry;
            Some entry.value
        | None ->
            t.misses <- t.misses + 1;
            None)

  let set t key value =
    let victims =
      locked t (fun () ->
          match Hashtbl.find_opt t.table key with
          | Some entry ->
              (* Replacing in place never evicts (and never notifies:
                 the caller handed over the new value knowingly). *)
              let entry = { entry with value } in
              Hashtbl.replace t.table key entry;
              touch t entry;
              []
          | None ->
              let victims = evict_over_capacity t [] in
              t.tick <- t.tick + 1;
              Hashtbl.add t.table key { value; stamp = t.tick };
              victims)
    in
    notify_evicted t victims

  let remove t key =
    (* An explicit drop like [clear]: no eviction counted, [on_evict]
       not fired, statistics untouched. *)
    locked t (fun () -> Hashtbl.remove t.table key)

  let clear t =
    (* The table and its statistics reset together: after a clear,
       [hit_rate] describes only post-clear traffic, and [tick] restarts
       from 0 — stamps only order the entries currently in the table, so
       an empty table has nothing to stay monotone against.  [on_evict]
       does not fire: cleared entries are dropped by the owner's
       explicit request, not displaced by capacity pressure. *)
    locked t (fun () ->
        Hashtbl.reset t.table;
        t.tick <- 0;
        t.hits <- 0;
        t.misses <- 0;
        t.evictions <- 0)
  let hits t = locked t (fun () -> t.hits)
  let misses t = locked t (fun () -> t.misses)
  let evictions t = locked t (fun () -> t.evictions)
  let size t = locked t (fun () -> Hashtbl.length t.table)

  let hit_rate t =
    locked t (fun () ->
        let total = t.hits + t.misses in
        if total = 0 then 0. else float_of_int t.hits /. float_of_int total)
end

(* Fixed-width little-endian fields, so the key parses back uniquely:
   the dimensions, the length-prefixed algorithm name, then per class a
   length-prefixed name, the bandwidth and the exact bit patterns of the
   three rates.  No Printf: the key is built on every sweep point. *)
let add_int b n = Buffer.add_int64_le b (Int64.of_int n)
let add_float b x = Buffer.add_int64_le b (Int64.bits_of_float x)

let add_string b s =
  add_int b (String.length s);
  Buffer.add_string b s

let key_of_model ?algorithm model =
  let algorithm =
    match algorithm with Some a -> a | None -> Solver.recommended model
  in
  let b = Buffer.create 128 in
  add_int b (Model.inputs model);
  add_int b (Model.outputs model);
  add_string b (Solver.algorithm_to_string algorithm);
  Array.iter
    (fun (c : Traffic.t) ->
      add_string b c.Traffic.name;
      add_int b c.Traffic.bandwidth;
      add_float b c.Traffic.alpha;
      add_float b c.Traffic.beta;
      add_float b c.Traffic.service_rate)
    (Model.classes model);
  Buffer.contents b

type t = Solver.solution Memo.t

let create ?capacity () = Memo.create ?capacity ()

let find_or_compute t ?algorithm model f =
  Memo.find_or_compute t (key_of_model ?algorithm model) f

let find_or_solve t ?algorithm model =
  find_or_compute t ?algorithm model (fun () ->
      Solver.solve_full ?algorithm model)

let hits = Memo.hits
let misses = Memo.misses
let evictions = Memo.evictions
let size = Memo.size
let hit_rate = Memo.hit_rate
let clear = Memo.clear
