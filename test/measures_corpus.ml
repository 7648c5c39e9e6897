(* Prints the measures of a fixed corpus of models ([Corpus.corpus]),
   solved by the factor tree, with every float in hexadecimal ([%h]) so
   that the output pins them bit for bit: log G, then per class its
   blocking, its concurrency and its concurrency on the switch reduced
   by 1, 2 and 3 ports per side ([Convolution.concurrencies_at_depth]).
   A model whose solve the dynamic rescaling flushes prints one fixed
   line instead.  `dune runtest` diffs the output against
   measures_corpus.expected: any kernel or solver change that moves a
   measure by one bit shows up there. *)

module Conv = Crossbar.Convolution
module Measures = Crossbar.Measures

let print_solved name solved =
  Printf.printf "%s: log G %h\n" name (Conv.log_normalization solved);
  let depths =
    Array.init 3 (fun d -> Conv.concurrencies_at_depth solved ~depth:(d + 1))
  in
  Array.iteri
    (fun r (c : Measures.per_class) ->
      Printf.printf "  %s blocking %h concurrency %h depth 1-3 %h %h %h\n"
        c.Measures.name c.Measures.blocking c.Measures.concurrency
        depths.(0).(r) depths.(1).(r) depths.(2).(r))
    (Conv.measures solved).Measures.per_class

let () =
  List.iter
    (fun (name, model) ->
      match Conv.solve model with
      | solved -> print_solved name solved
      | exception Failure _ -> Printf.printf "%s: flushed\n" name)
    Corpus.corpus
