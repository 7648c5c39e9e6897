(** Revenue-oriented performance analysis (paper Section 4).

    An accepted class-[r] connection earns revenue [w_r]; the average
    return [W(N) = sum_r w_r E_r(N)] is the weighted throughput (with
    [w_r = gamma_r mu_r]).  The gradient of [W] with respect to a class's
    offered load decides whether admitting more of that class pays:
    a request is accepted with probability [B_r(N)], earns [w_r], and
    displaces [Delta W = W(N) - W(N - a_r I)] — the {e shadow cost}. *)

val total : ?algorithm:Solver.algorithm -> Model.t -> weights:float array -> float
(** The average return [W(N)]. *)

val reduced_model : Model.t -> ports:int -> Model.t
(** The model on an [(N1 - ports) x (N2 - ports)] switch with the {e same
    per-pair} parameters — the "[N - a_r I]" system of the shadow-cost
    formula.  (Aggregate parameters are rescaled by
    [C(N2 - ports, a) / C(N2, a)] so the per-pair ones stay put.)
    @raise Invalid_argument if the reduction empties the switch. *)

val shadow_cost :
  ?algorithm:Solver.algorithm -> Model.t -> weights:float array ->
  class_index:int -> float
(** [Delta W(N) = W(N) - W(N - a_r I)], the historical two-solve path
    (per class: one full and one reduced-switch solve).  Prefer
    {!shadow_costs}, which batches all [R] of them out of one solve. *)

val shadow_costs :
  ?solved:Convolution.t -> Model.t -> weights:float array -> float array
(** All [R] shadow costs [Delta_r W(N) = W(N) - W(N - a_r I)] from a
    {e single} convolution solve: {!reduced_model} preserves the
    per-pair parameters, so every reduced switch's measures are read off
    deeper entries of the already-solved diagonal
    ({!Convolution.concurrencies_at_depth}) — one chain walk per distinct
    bandwidth, memoized by the solve, instead of [R + 1] independent
    solves.  Classes whose reduction would empty
    the switch get [Delta_r = W(N)] (the whole return is at stake), where
    {!shadow_cost} raises.  Pass [?solved] to reuse an existing solve of
    {e the same} model (e.g. from a sweep point).
    @raise Invalid_argument on weight-count mismatch, or if [?solved]
    came from a different model (exact, bit-level comparison). *)

val class_shadow_cost :
  ?solved:Convolution.t -> Model.t -> weights:float array ->
  class_index:int -> float
(** [(shadow_costs ?solved model ~weights).(class_index)], bit for bit,
    reading only the depths that class needs: [0] and its bandwidth
    (both memoized by the solve).  The daemon's [admit] answers from it.
    @raise Invalid_argument as {!shadow_costs}, with the same messages,
    or if [class_index] is out of range. *)

val gradient :
  ?solved:Convolution.t -> Model.t -> weights:float array ->
  float option array
(** Closed-form revenue gradient for every class at once, powered by
    {!shadow_costs} — one solve for the whole vector instead of the
    [2R + 1] solves of calling {!gradient_rho} per class.  Element [r] is
    [Some (P(N1,a_r) P(N2,a_r) B_r(N) (w_r - Delta_r W))] for Poisson
    classes and [None] for bursty ones (the paper found no closed form;
    use {!gradient_beta_numeric}).
    @raise Invalid_argument as {!shadow_costs}. *)

val gradient_rho :
  ?algorithm:Solver.algorithm -> Model.t -> weights:float array ->
  class_index:int -> float
(** Closed-form gradient of [W] w.r.t. the per-pair Poisson load [rho_r]:
    [P(N1,a_r) P(N2,a_r) B_r(N) (w_r - Delta W(N))] (the paper prints the
    [a_r = 1] case, [N1 N2 B_r (w_r - Delta W)]).
    @raise Invalid_argument if class [r] is not Poisson (the paper found
    no closed form for bursty classes — use {!gradient_beta_numeric}). *)

val gradient_rho_numeric :
  ?algorithm:Solver.algorithm -> ?step:float -> Model.t ->
  weights:float array -> class_index:int -> float
(** Central-difference gradient w.r.t. the per-pair [rho_r] (any class);
    used to validate {!gradient_rho}. *)

val gradient_beta_numeric :
  ?algorithm:Solver.algorithm -> ?step:float -> Model.t ->
  weights:float array -> class_index:int -> float
(** Forward-difference gradient w.r.t. the per-pair bursty load
    [beta_r / mu_r] — exactly the paper's numerical scheme for Table 2.
    @raise Invalid_argument if class [r] is Poisson. *)
