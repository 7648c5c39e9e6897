(* Fixture: one R1 ordering (line 5), one legal exact-zero guard. *)

let exactly_pi x = x = 3.14
let not_half x = x <> 0.5
let above_threshold x = x > 0.75
let legal_guard x = x > 0.
let float_equal_literal x = Float.equal x 0.25
let float_compare_literal x = Float.compare x 1.5
