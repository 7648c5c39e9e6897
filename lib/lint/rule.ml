type id =
  | Syntax
  | R1
  | R2
  | R4
  | R5
  | R6
  | R7
  | R8
  | R9
  | R10
  | R12
  | R13

let all = [ R1; R2; R4; R5; R6; R7; R8; R9; R10; R12; R13 ]
let typed = function R7 | R8 | R9 | R10 | R12 | R13 -> true | _ -> false

let to_string = function
  | Syntax -> "R0"
  | R1 -> "R1"
  | R2 -> "R2"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"
  | R8 -> "R8"
  | R9 -> "R9"
  | R10 -> "R10"
  | R12 -> "R12"
  | R13 -> "R13"

let of_string text =
  match String.uppercase_ascii (String.trim text) with
  | "R0" | "SYNTAX" -> Some Syntax
  | "R1" -> Some R1
  | "R2" -> Some R2
  | "R4" -> Some R4
  | "R5" -> Some R5
  | "R6" -> Some R6
  | "R7" -> Some R7
  | "R8" -> Some R8
  | "R9" -> Some R9
  | "R10" -> Some R10
  | "R12" -> Some R12
  | "R13" -> Some R13
  | _ -> None

let valid_ids () = String.concat ", " (List.map to_string all)

let parse_list text =
  let ( let* ) = Result.bind in
  let* ids =
    List.fold_left
      (fun acc piece ->
        let* acc = acc in
        let piece = String.trim piece in
        if String.equal piece "" then
          Error
            (Printf.sprintf
               "empty rule id in %S; expected a comma-separated list such as \
                R1,R5"
               text)
        else
          (* R0 cannot be selected: it always runs, so a list naming
             only it would lint for nothing. *)
          match of_string piece with
          | Some Syntax | None ->
              Error
                (Printf.sprintf "unknown rule id %S (valid ids: %s)" piece
                   (valid_ids ()))
          | Some rule -> Ok (rule :: acc))
      (Ok [])
      (String.split_on_char ',' text)
  in
  match ids with
  | [] -> Error "empty rule list; expected at least one rule id"
  | ids -> Ok (List.rev ids)

let title = function
  | Syntax -> "source file must parse"
  | R1 -> "no ordering against a magic float literal outside lib/numerics"
  | R2 -> "exp/log in core numerical code must go through Logspace/Prob"
  | R4 -> "library code must not print to stdout"
  | R5 -> "no exception-swallowing catch-all handlers"
  | R6 -> "every library implementation has a matching interface"
  | R7 -> "no float equality through Float.equal/compare or polymorphic =/compare (typed)"
  | R8 -> "no top-level value whose inferred type is mutable on pool-reachable code (typed)"
  | R9 -> "no unlocked writes to top-level mutable state reachable from Pool workers (typed)"
  | R10 ->
      "closures crossing a domain boundary must not capture unsynchronized \
       mutable state (typed)"
  | R12 ->
      "raise effects must not escape through pool or lock boundaries (typed)"
  | R13 -> "no cross-domain float arithmetic: log, linear, mantissa (typed)"

let rationale = function
  | Syntax -> "a file the compiler cannot parse cannot be audited at all"
  | R1 ->
      "the product-form recurrences (Algorithms 1 and 2) are only correct \
       under tolerance/ULP comparison discipline; a threshold such as \
       x > 0.75 is an unnamed tolerance that hides rounding bugs"
  | R2 ->
      "raw exp/log silently under/overflows on the dynamic ranges the \
       normalisation constants span; the Logspace/Prob wrappers are guarded"
  | R4 ->
      "libraries must return data or take an explicit formatter so callers \
       (CLI, bench, tests) control the channel"
  | R5 ->
      "a wildcard handler swallows Out_of_memory, Stack_overflow and every \
       programming error; match the exceptions you mean and carry context"
  | R6 ->
      "an .mli is the audited surface of a module; without one every helper \
       leaks and the invariants above cannot be enforced at the boundary"
  | R7 ->
      "Float.equal/Float.compare and polymorphic = on floats are exact \
       bit-pattern comparisons; only the inferred types show that an \
       operand is a float, however it is spelled or aliased"
  | R8 ->
      "a top-level array, Bytes, ref or mutable-field record is shared \
       across pool domains whatever expression created it; the value's \
       inferred type, not the creator's name, is the ground truth"
  | R9 ->
      "a function reachable from Engine.Pool workers that writes sanctioned \
       top-level mutable state outside a lock-wrapped region races; the \
       typed call graph over-approximates reachability in the safe direction"
  | R10 ->
      "a lambda handed to Engine.Pool.run or Domain.spawn runs on another \
       domain; every array, ref or mutable record it closes over is shared \
       without synchronisation, so only Atomic/Mutex-guarded (or explicitly \
       annotated) captures are sound"
  | R12 ->
      "an exception thrown inside a lambda handed to Mutex.protect or \
       Engine.Pool.run unwinds mid-critical-section: the lock is released \
       but shared state is half-written, and every later reader sees it \
       poisoned"
  | R13 ->
      "log-domain magnitudes, linear probabilities and rescaled mantissas \
       share the float type but not a unit; adding log to linear, \
       re-exponentiating an exponentiated value or comparing mantissas \
       under different exponents is silently wrong at exactly the scales \
       the rescale-exponent machinery exists for"

let compare = Stdlib.compare
