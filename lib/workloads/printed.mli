(** The numbers {e printed} in the paper, transcribed for side-by-side
    comparison in [crossbar_tables] and EXPERIMENTS.md.

    These are the published values, not what the exact model yields — see
    the Table 2 forensics in EXPERIMENTS.md: the published computation
    demonstrably delayed the [beta] state-dependence by one occupancy
    level, so exact agreement is expected only where [beta] cannot yet
    act (N = 1, 2). *)

type table2_row = {
  size : int;
  gradient_rho1 : float; (* dW/drho_1, closed form *)
  gradient_beta2 : float option; (* dW/d(beta_2/mu_2); absent at N = 1 *)
  blocking : float; (* the B_r(N) column (blocking probability) *)
  revenue : float; (* W(N) *)
}

val table2 : (string * table2_row list) list
(** Per parameter-set rows of Table 2, keyed by the set labels of
    {!Paper.table2_sets}. *)

val table2_rows : set_label:string -> table2_row list
(** @raise Not_found for an unknown label. *)
