(** The asynchronous [N1 x N2] multi-rate crossbar model (paper Section 2).

    A model couples switch dimensions with a set of {!Traffic} classes and
    precomputes the {e per-pair} BPP parameters
    [alpha_r = alpha~_r / C(N2, a_r)] (idem [beta_r], [rho_r]) that appear
    in the product-form solution.  All solvers ({!Brute}, {!Convolution},
    {!Mva}) take a model and agree on these conventions. *)

type t

val create : inputs:int -> outputs:int -> classes:Traffic.t list -> t
(** [create ~inputs ~outputs ~classes] validates and freezes a model.

    @raise Invalid_argument if [inputs < 1] or [outputs < 1]; if two
    classes share a name; if a class's bandwidth exceeds
    [min (inputs, outputs)] (it could never connect); or if a Bernoulli
    class ([beta < 0]) can reach a
    negative arrival rate inside the feasible state space without
    [alpha/(-beta)] being an integer (which would make the product-form
    weights negative — see DESIGN.md). *)

val square : size:int -> classes:Traffic.t list -> t
(** [square ~size ~classes = create ~inputs:size ~outputs:size ~classes]. *)

val inputs : t -> int
val outputs : t -> int

val capacity : t -> int
(** [min (inputs, outputs)] — the maximum number of simultaneously busy
    input (equivalently output) ports. *)

val classes : t -> Traffic.t array
(** The traffic classes, in declaration order (index = class index). *)

val num_classes : t -> int

val bandwidth : t -> int -> int
(** [a_r] for class index [r]. *)

val bandwidths : t -> int array

val service_rate : t -> int -> float

val alpha : t -> int -> float
(** Per-pair [alpha_r = alpha~_r / C(N2, a_r)]. *)

val beta : t -> int -> float
(** Per-pair [beta_r]. *)

val rho : t -> int -> float
(** Per-pair offered load [rho_r = alpha_r / mu_r]. *)

val beta_over_mu : t -> int -> float
(** [beta_r / mu_r], the bursty-load coordinate of the revenue gradient. *)

val arrival_rate : t -> class_index:int -> concurrent:int -> float
(** Per-pair state-dependent arrival rate
    [lambda_r(k) = alpha_r + beta_r * k], clamped at 0 (a Bernoulli class
    with all sources busy generates no arrivals). *)

val max_concurrent : t -> int -> int
(** Largest feasible [k_r]: [capacity / a_r], further capped at the source
    count for Bernoulli classes. *)

val is_poisson : t -> int -> bool
(** Whether class [r] belongs to the paper's group [R1] ([beta_r = 0]). *)

val map_class : t -> int -> (Traffic.t -> Traffic.t) -> t
(** [map_class t r f] rebuilds the model with class [r] replaced by
    [f (classes t).(r)] — used for numeric gradients and load sweeps. *)

val class_delta : t -> t -> int list option
(** [class_delta a b] is [Some changed] when the two models share switch
    dimensions and class count, with [changed] the sorted list of class
    indices on which they differ ({!Traffic.equal}, i.e. exact bit-level
    comparison of rates) — [Some []] when they are structurally
    identical.  [None] when the switch shapes or class counts differ,
    i.e. when no factor state can be shared at all.  The sweep engine
    uses this to route {e any} compatible pair of points to
    {!Convolution.solve_delta}. *)

val single_class_delta : t -> t -> int option
(** [single_class_delta a b] is [Some r] when {!class_delta} reports
    exactly the one changed class [r]; [None] otherwise — including when
    the models are structurally identical.  For callers that only
    tolerate one moving class; {!Convolution.solve_delta} accepts any
    subset. *)

val state_space : t -> Crossbar_markov.State_space.t
(** The paper's [Gamma(N)]: all occupancy vectors with
    [k . A <= capacity].  Built lazily and cached. *)

val pp : Format.formatter -> t -> unit
