(** Approximate blocking analysis of the multi-stage asynchronous network
    — the paper's stated future work, built on its single-stage model.

    Uniform single-rate Poisson traffic: each of the [N] inputs offers
    circuits at rate [offered] to uniformly random outputs; a circuit
    holds one link at every level of its route simultaneously
    (holding-time mean [1 / service_rate]).  Two approximations of the
    end-to-end blocking, both in the reduced-load (Erlang fixed point)
    family:

    - {!link_fixed_point} treats every link of the route as an
      independent single-server loss group with thinned offered load —
      the classical approximation, blind to switch structure;
    - {!switch_markov} uses the paper's exact [k x k] crossbar solution
      for the {e joint} availability of each consecutive link pair
      (input, output of one switch) and chains them with a Markov
      (junction-tree) correction:
      [P(route free) ~ prod_t P(l_(t-1), l_t free) / prod_t P(l_t free)].
      At [stages = 1] this is exact.

    Both are validated against the event-driven network simulator
    ({!Sim}); see [crossbar_tables multistage]. *)

type result = {
  end_to_end_blocking : float;
  link_occupancy : float; (* probability a given link is busy *)
  iterations : int; (* fixed-point iterations used *)
}

val link_fixed_point :
  ?tolerance:float -> Topology.t -> offered:float -> service_rate:float ->
  result
(** @raise Invalid_argument for negative loads or rates. *)

val switch_markov :
  ?tolerance:float -> ?max_iterations:int -> Topology.t -> offered:float ->
  service_rate:float -> result
(** @raise Failure if the damped fixed point fails to converge. *)
