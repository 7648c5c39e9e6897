(** Uniform front-end over the three evaluation engines. *)

type algorithm =
  | Brute_force  (** direct enumeration of [Gamma(N)] — validation only *)
  | Convolution  (** the paper's Algorithm 1 (with dynamic scaling) *)
  | Mean_value  (** the paper's Algorithm 2 (ratio recurrences) *)

val algorithm_of_string : string -> (algorithm, string) result
val algorithm_to_string : algorithm -> string

val recommended : Model.t -> algorithm
(** The paper's guidance: Algorithm 1 for small crossbars
    ([min(N1,N2) <= 32]), Algorithm 2 for larger ones. *)

type solution = {
  algorithm : algorithm;  (** the algorithm that actually ran *)
  measures : Measures.t;
  log_normalization : float;  (** [log G(N1, N2)] from the same solve *)
  lattice_cells : int;
      (** lattice points computed: [(N1+1)(N2+1)] for the two
          recurrence algorithms, [0] for enumeration *)
  rescales : int;
      (** {!Convolution} dynamic-rescale events; [0] for the others *)
  tree_combines : int;
      (** pairwise factor-tree combines the {!Convolution} solve
          performed ([R - 1] for a full build, [O(#changed log R)] for a
          {!Convolution.solve_delta}); [0] for the other algorithms *)
  banded_combines : int;
      (** how many of those combines ran the banded parallel kernel
          (non-zero only at or above the context's capacity threshold —
          see {!Convolution.context_of}); [0] for the other
          algorithms *)
}

val solution_of_convolution : Convolution.t -> solution
(** Packages an already-solved convolution lattice (e.g. one produced by
    {!Convolution.solve_delta}) as a {!solution}, without
    re-running anything. *)

val solve_full : ?algorithm:algorithm -> Model.t -> solution
(** Evaluate the model once and return both the performance measures and
    the log-normalisation constant, plus solve metadata.  Callers that
    need measures {e and} [log G] (sweep engines, caches) must use this
    instead of pairing {!solve} with {!log_normalization}, which would
    run the recurrence twice. *)

val solve : ?algorithm:algorithm -> Model.t -> Measures.t
(** Evaluate the model; default algorithm is {!recommended}. *)

val log_normalization : ?algorithm:algorithm -> Model.t -> float
(** [log G(N)] — brute force is excluded from the default choice here
    only by the state-space guard it applies itself. *)
