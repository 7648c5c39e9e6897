(* Fixture: a pool fan-out over two captured arrays, both
   frozen before the pool starts, which the guarded= directive asserts.
   The regression test strips that directive and expects R10 to come back
   naming exactly these captures.  [noisy] shows the blunt per-line
   disable= form, which survives the strip. *)

let groups = Array.make 2 0
let requests = Array.make 2 "q"

let serve () =
  (* lint: guarded=groups,requests — frozen before the pool starts *)
  Pool.run ~tasks:2 (fun g -> String.length requests.(groups.(g)))

let noisy () =
  (* lint: disable=R10 *)
  Pool.run ~tasks:2 (fun g -> groups.(g))
