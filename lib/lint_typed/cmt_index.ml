module Lint = Crossbar_lint

type t = (string, string) Hashtbl.t

let find t source = Hashtbl.find_opt t (Lint.Config.normalize source)

let of_pairs pairs =
  let t = Hashtbl.create 16 in
  List.iter
    (fun (source, cmt) -> Hashtbl.replace t (Lint.Config.normalize source) cmt)
    pairs;
  t

(* dune stores the artifacts of library [x] under [dir/.x.objs/byte] and
   those of an executable under [dir/.x.eobjs/byte], naming each unit
   [Wrapper__Unit.cmt] (or [dune__exe__Unit.cmt]).  The source unit is the
   segment after the last "__", uncapitalized, next to the [.objs]
   directory — so the whole map can be built from filenames alone, without
   unmarshalling a single [.cmt]. *)
let unit_of_artifact name =
  let base = Filename.remove_extension name in
  let rec last_segment from acc =
    match String.index_from_opt base from '_' with
    | Some i
      when i + 1 < String.length base && base.[i + 1] = '_' ->
        let rest = i + 2 in
        if rest < String.length base then last_segment rest rest else acc
    | Some i -> last_segment (i + 1) acc
    | None -> acc
  in
  let start = last_segment 0 0 in
  String.sub base start (String.length base - start)

let objs_source_dir dir =
  (* [<parent>/.lib.objs/byte] or [<parent>/.exe.eobjs/byte] -> [<parent>]. *)
  if String.equal (Filename.basename dir) "byte" then
    let objs = Filename.dirname dir in
    let base = Filename.basename objs in
    if
      String.starts_with ~prefix:"." base
      && (Filename.check_suffix base ".objs"
         || Filename.check_suffix base ".eobjs")
    then Some (Filename.dirname objs)
    else None
  else None

let scan ~root =
  let t = Hashtbl.create 64 in
  let rec walk dir =
    match Sys.readdir dir with
    | entries ->
        Array.sort String.compare entries;
        Array.iter
          (fun entry ->
            let path = Filename.concat dir entry in
            if Sys.is_directory path then walk path
            else if Filename.check_suffix entry ".cmt" then
              match objs_source_dir dir with
              | None -> ()
              | Some source_dir ->
                  let unit = unit_of_artifact entry in
                  if not (String.equal unit "") then begin
                    let source =
                      Filename.concat source_dir
                        (String.uncapitalize_ascii unit ^ ".ml")
                    in
                    if Sys.file_exists source then begin
                      (* Key by the path relative to [root], which is how
                         sources are discovered by the driver. *)
                      let key =
                        if String.starts_with ~prefix:(root ^ "/") source then
                          String.sub source
                            (String.length root + 1)
                            (String.length source - String.length root - 1)
                        else source
                      in
                      let key = Lint.Config.normalize key in
                      if not (Hashtbl.mem t key) then Hashtbl.add t key path
                    end
                  end)
          entries
    | exception Sys_error _ -> ()
  in
  if Sys.file_exists root && Sys.is_directory root then walk root;
  t
