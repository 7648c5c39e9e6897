(** Rendering of the paper's figures and tables as text, for the
    [crossbar_tables] CLI.

    Each [print_*] writes a self-describing TSV block: the series the
    corresponding paper figure plots, or the table rows with this
    implementation's values side by side with the published ones.

    The figure and Table 2 sweeps run through
    {!Crossbar_engine.Sweep}: pass [?domains] to control the pool width
    (default {!Crossbar_engine.Pool.recommended_domains}), [?cache] to
    share solved models across sections, and [?telemetry] to collect
    per-solve records.  Output is byte-identical for every domain
    count.

    [?incremental] forwards to {!Crossbar_engine.Sweep.run}: points of a
    figure series that differ in a single class chain through the
    incremental convolution path.  Output is byte-identical either
    way. *)

val print_figure :
  ?sizes:int list ->
  ?domains:int ->
  ?cache:Crossbar_engine.Cache.t ->
  ?telemetry:Crossbar_engine.Telemetry.t ->
  ?incremental:bool ->
  Format.formatter ->
  name:string ->
  Paper.series list ->
  unit
(** Blocking probability of the first class of each series, for every
    size in [sizes] (default {!Paper.sizes}). *)

val print_table1 : Format.formatter -> unit

val print_table2 :
  ?domains:int ->
  ?cache:Crossbar_engine.Cache.t ->
  ?telemetry:Crossbar_engine.Telemetry.t ->
  ?incremental:bool ->
  Format.formatter ->
  unit

val print_forensics : Format.formatter -> unit
(** The Table 2 provenance analysis: printed values vs the exact model vs
    the shifted-[beta] variant at N = 1, 2 (see EXPERIMENTS.md). *)

val print_simulation_check :
  ?horizon:float -> ?seed:int -> Format.formatter -> unit
(** Analysis vs discrete-event simulation on a moderate mixed workload
    (the paper's future-work validation). *)

val print_baselines : Format.formatter -> unit
(** Slotted crossbar and banyan baselines vs the asynchronous switch. *)

val print_multistage : ?horizon:float -> Format.formatter -> unit
(** The future-work extension: multi-stage network blocking — simulation
    vs the switch-level Markov approximation (built on the paper's
    single-crossbar model) vs the classical link-independence fixed
    point. *)

val print_hotspot : ?horizon:float -> Format.formatter -> unit
(** The companion-study extension: exact hot-spot blocking (symmetric
    polynomials) vs port-level simulation. *)

val print_all :
  ?domains:int ->
  ?telemetry:Crossbar_engine.Telemetry.t ->
  ?incremental:bool ->
  Format.formatter ->
  unit
(** Every section above, in paper order (uses short simulations), with
    one shared solution cache across sections. *)
