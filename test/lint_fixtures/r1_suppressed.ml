(* Fixture: the violation below is acknowledged and suppressed. *)

(* lint: disable=R1 — fixture demonstrating line suppression *)
let above_threshold x = x > 0.75
