module Json = Crossbar_engine.Json
module Clock = Crossbar_engine.Clock

type span = {
  id : int;
  name : string;
  parent : int option;
  window : int;
  start_ns : int;
  stop_ns : int;
}

type t = { mutable log : span list; mutable next : int }

let create () = { log = []; next = 0 }
let now () = Int64.to_int (Clock.now_ns ())

let record t ~name ~window ?parent f =
  let id = t.next in
  t.next <- id + 1;
  let start_ns = now () in
  let result = f id in
  let stop_ns = now () in
  t.log <- { id; name; parent; window; start_ns; stop_ns } :: t.log;
  result

let spans t = List.rev t.log

(* Length of the union of [intervals] after clipping each to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let rec merge total reach = function
    | [] -> total
    | (a, b) :: rest ->
        let a = max a reach in
        if b <= a then merge total reach rest
        else merge (total + (b - a)) b rest
  in
  merge 0 min_int (List.sort compare clipped)

let self_ns spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
          let siblings = Option.value ~default:[] (Hashtbl.find_opt children p) in
          Hashtbl.replace children p ((s.start_ns, s.stop_ns) :: siblings)
      | None -> ())
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      let duration = s.stop_ns - s.start_ns in
      (s, duration - covered ~lo:s.start_ns ~hi:s.stop_ns kids))
    spans

let totals spans =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let total, count =
        Option.value ~default:(0, 0) (Hashtbl.find_opt table s.name)
      in
      Hashtbl.replace table s.name (total + self, count + 1))
    (self_ns spans);
  List.sort compare
    (Hashtbl.fold (fun name (total, count) acc -> (name, total, count) :: acc)
       table [])

let to_jsonl spans =
  let buffer = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string buffer
        (Json.to_string
           (Json.Assoc
              [
                ("id", Json.Int s.id);
                ("name", Json.String s.name);
                ( "parent",
                  match s.parent with Some p -> Json.Int p | None -> Json.Null );
                ("window", Json.Int s.window);
                ("start_ns", Json.Int s.start_ns);
                ("stop_ns", Json.Int s.stop_ns);
              ]));
      Buffer.add_char buffer '\n')
    spans;
  Buffer.contents buffer
