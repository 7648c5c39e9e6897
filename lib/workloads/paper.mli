(** The exact workloads behind every figure and table of Stirpe & Pinsky
    (SIGCOMM '92) — the single source of truth shared by the
    [crossbar_tables] CLI, the regression tests and the examples.

    Figures plot blocking probability against square switch size
    [N = N1 = N2]; tables print parameter sets and revenue results.  See
    DESIGN.md §4 for the experiment index and EXPERIMENTS.md for measured
    vs printed values. *)

type series = {
  label : string;
  model_of_size : int -> Crossbar.Model.t;
}
(** One curve of a figure: a family of models indexed by switch size. *)

val sizes : int list
(** The sizes sampled by the figures: powers of two from 1 to 128. *)

val figure1 : series list
(** Smooth (Bernoulli) arrival traffic vs the Poisson bound:
    [alpha~ = 0.0024], [mu = 1], [a = 1],
    [beta~ in {0, -1e-6, -2e-6, -4e-6}].  The [beta~ = 0] series is the
    degenerate Poisson upper bound. *)

val figure2 : series list
(** Peaky (Pascal) traffic vs Poisson: same operating point,
    [beta~ in {0, 0.0006, 0.0012, 0.0024}].  The paper does not print its
    [beta~] values for this figure; these are substitutes at the same
    magnitude as Table 2 (see DESIGN.md §5). *)

val figure3 : series list
(** Two classes ([R1 = 1, R2 = 1]) against one bursty class
    ([R1 = 0, R2 = 1]): Poisson load shifts the operating point while the
    relative effect of [beta~] is unchanged. *)

val figure4 : series list
(** Multi-rate comparison at constant total load [tau = 0.0048]:
    single-connection traffic ([a = 1]) vs double-connection traffic
    ([a = 2]), each analysed separately, with the loads of Table 1.
    Evaluate these only at {!figure4_sizes} — the [a = 2] class does not
    fit on smaller switches. *)

val figure4_sizes : int list
(** The sizes Figure 4 plots (Table 1's sizes plus 128). *)

val table1_sizes : int list
(** The sizes printed in Table 1: 4, 8, 16, 32, 64. *)

val table1_loads : int -> float * float
(** [(rho~_1, rho~_2)] for a given size, as {e printed} in Table 1:
    [tau/(2N)] for [a = 1] and [tau/C(N,2)] for [a = 2].  (The prose says
    [tau/C(N1,a_r)] for both — see DESIGN.md §2 item 6.) *)

type revenue_set = {
  set_label : string;
  rho1 : float; (* aggregate Poisson load, class 1 *)
  rho2 : float; (* aggregate alpha~_2 / mu_2 *)
  beta2 : float; (* aggregate beta~_2 *)
  weights : float array; (* w_1, w_2 *)
}

val table2_sets : revenue_set list
(** The three parameter sets of Table 2 ([w1 = 1], [w2 = 1e-4]). *)

val table2_sizes : int list
(** 1, 2, 4, ..., 256. *)

val table2_model : revenue_set -> int -> Crossbar.Model.t

val operating_point_model : int -> Crossbar.Model.t
(** The canonical single-Poisson-class model at the paper's "acceptable
    operating point" ([alpha~ = 0.0024] giving ~0.5% blocking). *)
