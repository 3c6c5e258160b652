(** The greedy probe loop of the refined heuristics (§5.2, Figs. 6–8).

    REDUCED BROADCAST, AUGMENTED MULTICAST and AUGMENTED SOURCES share one
    scheme: order candidate nodes by their flow contribution, probe them
    one LP solve at a time, move to the first probe that does not worsen
    the period, and start a new round from it. They differ only in the
    search state (a kept-node list, a reduced platform, a source list), the
    step a candidate makes, the candidate order and the program solved. *)

(** [greedy ?max_tries_per_round ~candidates ~step ~solve s0] solves [s0],
    then each round probes [solve (step s m)] for the first
    [max_tries_per_round] nodes [m] of [candidates s best] ([None]: all
    of them), where [s] is the incumbent state and [best] its solution. It
    moves to the first probe whose period is no worse than the incumbent's,
    an infeasible program counting as an infinite period (so an infeasible
    probe is accepted while the incumbent is infeasible too), and stops
    after a round that accepts none. Returns the final state and its
    solution, or [None] when that solution is infeasible. *)
val greedy :
  ?max_tries_per_round:int ->
  candidates:('s -> Formulations.solution option -> int list) ->
  step:('s -> int -> 's) ->
  solve:('s -> Formulations.solution option) ->
  's ->
  ('s * Formulations.solution) option
