(** Umbrella runner: every §5/§6 heuristic plus the LP bounds, with the
    names used in the paper's Fig. 11 legends. *)

type entry = {
  name : string;
  period : float; (** [infinity] when the method failed on the instance *)
  throughput : float;
  wall_time : float; (** seconds spent by the method *)
}

type report = {
  platform : Platform.t;
  entries : entry list;
}

(** Method names, in the paper's order: "scatter" (Multicast-UB), "lower
    bound" (Multicast-LB), "broadcast" (Broadcast-EB on the full platform),
    "MCPH", "Augm. MC", "Red. BC", "Multisource MC". *)
val method_names : string list

(** [run_all ?max_tries_per_round ?max_sources p] runs every method.
    [max_tries_per_round] bounds the LP probes per improvement round of the
    refined heuristics (None = paper-faithful exhaustive probing). Each
    method's [wall_time] is measured with [Unix.gettimeofday]; it runs inside a
    [heuristic.<name>] trace span and its wall time feeds the
    [heuristics.method_seconds] histogram (PR 4). *)
val run_all :
  ?max_tries_per_round:int ->
  ?max_sources:int ->
  Platform.t ->
  report

(** [entry r name] looks an entry up by method name. Raises [Not_found]. *)
val entry : report -> string -> entry
