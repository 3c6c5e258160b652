type entry = {
  name : string;
  period : float;
  throughput : float;
  wall_time : float;
}

type report = {
  platform : Platform.t;
  entries : entry list;
}

let method_names =
  [ "scatter"; "lower bound"; "broadcast"; "MCPH"; "Augm. MC"; "Red. BC"; "Multisource MC" ]

let method_seconds = Metrics.histogram "heuristics.method_seconds"

let timed name f =
  let t0 = Unix.gettimeofday () in
  let period =
    Trace.with_span ~cat:"heuristic" ("heuristic." ^ name)
      ~result:(fun period -> [ ("period", Trace.Float period) ])
      f
  in
  let wall_time = Unix.gettimeofday () -. t0 in
  Metrics.observe method_seconds wall_time;
  let period = if period <= 0.0 then infinity else period in
  { name; period; throughput = 1.0 /. period; wall_time }

let run_all ?max_tries_per_round ?max_sources p =
  let entries =
    [
      timed "scatter" (fun () -> Formulations.period_of (Formulations.multicast_ub p));
      timed "lower bound" (fun () -> Formulations.period_of (Formulations.multicast_lb p));
      timed "broadcast" (fun () -> Formulations.period_of (Formulations.broadcast_eb p));
      timed "MCPH" (fun () ->
          match Mcph.run p with
          | None -> infinity
          | Some r -> Rat.to_float r.Mcph.period);
      timed "Augm. MC" (fun () ->
          match Augmented_multicast.run ?max_tries_per_round p with
          | None -> infinity
          | Some r -> r.Augmented_multicast.period);
      timed "Red. BC" (fun () ->
          match Reduced_broadcast.run ?max_tries_per_round p with
          | None -> infinity
          | Some r -> r.Reduced_broadcast.period);
      timed "Multisource MC" (fun () ->
          match Multisource.run ?max_sources ?max_tries_per_round p with
          | None -> infinity
          | Some r -> r.Multisource.period);
    ]
  in
  { platform = p; entries }

let entry r name = List.find (fun e -> e.name = name) r.entries
