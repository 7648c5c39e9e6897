(** Maps source paths to the [.cmt] binary-annotation artifacts dune (or a
    bare [ocamlc -bin-annot]) produced for them.

    {!scan} derives the whole map from dune's artifact layout
    ([dir/.lib.objs/byte/Wrapper__Unit.cmt] next to [dir/unit.ml]) using
    filenames alone — no [.cmt] is unmarshalled to build the index; each
    artifact is read once, by the analysis itself.  {!of_pairs} exists for
    tests and non-dune layouts where the association is explicit. *)

type t

val scan : root:string -> t
(** [scan ~root] walks [root] (typically ["_build/default"], or ["."] when
    already running inside the build context) and indexes every [.cmt]
    whose derived source file exists.  Keys are normalized paths relative
    to [root].  Unreadable directories are skipped silently. *)

val of_pairs : (string * string) list -> t
(** Explicit [source, cmt] associations; sources are normalized. *)

val find : t -> string -> string option
(** The artifact for a (normalized) source path, if any. *)
