(* mcast: command-line front end for the pipelined-multicast library.

   Subcommands:
     generate            emit a platform (Tiers or random) in the text format
     bounds              Multicast-LB / Multicast-UB / Broadcast-EB + topology stats
     heuristics          run the paper's method portfolio
     tree                one-port MCPH tree (+ optional DOT dump)
     simulate            schedule the MCPH tree and replay it
     broadcast-schedule  Broadcast-EB -> arborescence packing -> replay
     scatter-schedule    Multicast-UB -> weighted chains -> replay
     resilience          failure injection, schedule repair, retention report
                         (--online drives the recovery-loop controller)
     robust              proactive robust planning: worst-case retention report
     soak                chaos soak: continuous recovery over a fail/repair timeline
                         (--slo evaluates objectives, --incidents reports
                         fault -> breach -> repair -> recovery timelines)
     sessions            online session engine: rolling-horizon admission and
                         incremental re-planning over a churning session stream
     prefix              Theorem 5 parallel-prefix gadget walk-through
     gadget              set-cover gadget and the Theorem 1 correspondence

   Every subcommand takes the observability flags: --trace (Chrome trace),
   --metrics (registry deltas), --profile (self-time table, LP attribution
   and a JSON document) and --folded (flamegraph stacks). They observe the
   subcommand's own run. *)

open Cmdliner

let platform_arg =
  let doc = "Platform description file (defaults to stdin)." in
  Arg.(value & opt (some string) None & info [ "p"; "platform" ] ~docv:"FILE" ~doc)

(* The one platform loader: [-p FILE], or the platform text on stdin. The
   subcommand calls it inside {!run}, so a failure is a located error. *)
let load_platform file () =
  let loaded =
    match file with
    | Some path -> Platform_io.load path
    | None ->
      Result.map_error (( ^ ) "stdin: ")
        (Platform_io.of_string (In_channel.input_all In_channel.stdin))
  in
  match loaded with Ok p -> p | Error e -> failwith e

let platform_file = Term.(const load_platform $ platform_arg)

let seed_arg =
  let doc = "PRNG seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the scenario engine (defaults to \\$(b,MCAST_JOBS) or 1). \
     Results are bit-identical for every job count."
  in
  Arg.(value & opt int (Pool.default_jobs ()) & info [ "jobs" ] ~docv:"N" ~doc)

let platform_kinds =
  [
    ("tiers-small", `Tiers_small);
    ("tiers-big", `Tiers_big);
    ("random", `Random);
    ("fig1", `Fig1);
    ("fig4", `Fig4);
    ("two-relay", `Two_relay);
  ]

(* The name an enumerated flag's value was given by. *)
let enum_name choices v = fst (List.find (fun (_, v') -> v' = v) choices)

(* A generated platform draws its targets from a kind-dependent pool, so
   [--targets] is checked against that pool's size here (exit 1); the
   fixed paper platforms ignore it. *)
let platform_of_kind rng kind ~n_targets =
  let check_targets room =
    if n_targets < 1 || n_targets > room then
      failwith
        (Printf.sprintf "--targets %d: a %s platform takes 1 to %d targets" n_targets
           (enum_name platform_kinds kind) room)
  in
  match kind with
  | `Tiers_small ->
    check_targets Tiers.small_params.Tiers.lan_hosts;
    Tiers.generate rng Tiers.small_params ~n_targets
  | `Tiers_big ->
    check_targets Tiers.big_params.Tiers.lan_hosts;
    Tiers.generate rng Tiers.big_params ~n_targets
  | `Random ->
    let nodes = 20 in
    check_targets (nodes - 1);
    Generators.random_connected rng ~nodes ~extra_edges:10 ~min_cost:1 ~max_cost:50
      ~n_targets
  | `Fig1 -> Paper_platforms.fig1 ()
  | `Fig4 -> Paper_platforms.fig4 ()
  | `Two_relay -> Paper_platforms.two_relay ()

(* Every flag whose value comes from a fixed list of names is an [Arg.enum]:
   cmdliner rejects any other value as a usage error (exit 124) before the
   command does any work. *)
let kind_term ~doc =
  Arg.(value & opt (enum platform_kinds) `Tiers_small & info [ "kind" ] ~docv:"KIND" ~doc)

(* Numeric flags with a fixed range get the same treatment: a value outside
   it is a usage error (exit 124) before the command does any work. *)
let ranged conv ~expected ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let pos_int = ranged Arg.int ~expected:"an integer >= 1" (fun n -> n >= 1)
let nonneg_int = ranged Arg.int ~expected:"an integer >= 0" (fun n -> n >= 0)

let pos_float =
  ranged Arg.float ~expected:"a finite number > 0" (fun x -> Float.is_finite x && x > 0.0)

let nonneg_float =
  ranged Arg.float ~expected:"a finite number >= 0" (fun x -> Float.is_finite x && x >= 0.0)

let probability =
  ranged Arg.float ~expected:"a number in [0, 1]" (fun x -> x >= 0.0 && x <= 1.0)

(* Rational flags such as "3" or "3/2". *)
let rat_in ~expected ok =
  let parse s =
    match Rat.of_string s with
    | r when ok r -> Ok r
    | _ | (exception _) ->
      Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
  in
  Arg.conv (parse, fun fmt r -> Format.pp_print_string fmt (Rat.to_string r))

let pos_rat = rat_in ~expected:"a rational > 0" (fun r -> Rat.sign r > 0)
let nonneg_rat = rat_in ~expected:"a rational >= 0" (fun r -> Rat.sign r >= 0)
let at_least_one_rat = rat_in ~expected:"a rational >= 1" (fun r -> Rat.(r >= one))

let periods_arg default =
  Arg.(value & opt pos_int default & info [ "periods" ] ~docv:"N" ~doc:"Simulation periods to replay.")

let targets_arg =
  let doc = "Number of multicast targets for generated platforms." in
  Arg.(value & opt int 8 & info [ "targets" ] ~docv:"N" ~doc)

let horizon_arg default =
  let doc = "Simulated horizon (rational time units)." in
  Arg.(value & opt pos_rat (Rat.of_int default) & info [ "horizon" ] ~docv:"T" ~doc)

(* [-p FILE], or else a platform of [--kind] with [--targets] targets drawn
   from [--seed]. Evaluates to the seed, from which the stochastic
   subcommands derive their other streams, and a loader the subcommand
   runs inside its own error reporting. *)
let platform_term =
  let source file kind seed n_targets =
    ( seed,
      match file with
      | Some _ -> load_platform file
      | None -> fun () -> platform_of_kind (Random.State.make [| seed |]) kind ~n_targets )
  in
  let kind = kind_term ~doc:"Platform kind when no file is given (see $(b,generate))." in
  Term.(const source $ platform_arg $ kind $ seed_arg $ targets_arg)

(* The MCPH tree as a checked one-tree schedule: the baseline simulate,
   resilience and soak start from. *)
let mcph_schedule p =
  match Mcph.run p with
  | None -> failwith "some target is unreachable"
  | Some r ->
    let sched =
      Schedule.of_tree_set (Tree_set.make [ (r.Mcph.tree, Rat.inv r.Mcph.period) ])
    in
    (match Schedule.check sched with
    | Ok () -> ()
    | Error e -> failwith ("baseline schedule check failed: " ^ e));
    sched

(* Check a schedule, then replay it for [periods] periods, or longer when
   its pipeline needs more to fill. *)
let replay_checked sched ~periods =
  (match Schedule.check sched with
  | Ok () -> ()
  | Error e -> failwith ("schedule check failed: " ^ e));
  match Event_sim.run sched ~periods:(max periods (Schedule.init_periods sched + 3)) with
  | Error e -> failwith ("simulation failed: " ^ e)
  | Ok stats -> stats

(* --- observability ---------------------------------------------------- *)

type obs = {
  trace : string option;
  metrics : bool;
  profile : string option;
  folded : string option;
}

let obs_term =
  let trace =
    let doc =
      "Record a Chrome-trace of the run into $(docv) (JSON; open in \
       chrome://tracing or https://ui.perfetto.dev). Spans carry the worker \
       domain id, so a --jobs N run shows pool utilization directly."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics =
    let doc = "Print the metrics-registry deltas accumulated during the run." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let profile =
    let doc =
      "Trace the run and print its self-time profile and LP attribution; write \
       the profile and the metrics delta as JSON to $(docv) (consumable by \
       $(b,bench --check-against))."
    in
    Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)
  in
  let folded =
    let doc =
      "Trace the run and write flamegraph folded stacks to $(docv) (feed to \
       flamegraph.pl or speedscope)."
    in
    Arg.(value & opt (some string) None & info [ "folded" ] ~docv:"FILE" ~doc)
  in
  Term.(
    const (fun trace metrics profile folded -> { trace; metrics; profile; folded })
    $ trace $ metrics $ profile $ folded)

(* LP-solve attribution from the metrics delta: solves/pivots by kind, the
   per-caller cache traffic (the dynamic lp_cache.{hits,misses}.<caller>
   counters) and the pool summary. *)
let print_lp_attribution (delta : Metrics.snapshot) =
  let c name =
    match Metrics.find delta name with Some (Metrics.Counter n) -> n | _ -> 0
  in
  Printf.printf "lp attribution:\n";
  Printf.printf
    "  solves %d float + %d exact; pivots %d float + %d exact; fallbacks %d; LB cut \
     rounds %d\n"
    (c "lp.solves.float") (c "lp.solves.exact") (c "lp.pivots.float")
    (c "lp.pivots.exact")
    (c "solver_chain.fallbacks")
    (c "formulations.lb_cut_rounds");
  let callers = Hashtbl.create 8 in
  let note prefix is_hits =
    let pl = String.length prefix in
    List.iter
      (fun (name, v) ->
        if String.length name > pl && String.sub name 0 pl = prefix then
          match v with
          | Metrics.Counter n ->
            let caller = String.sub name pl (String.length name - pl) in
            let h, m = Option.value ~default:(0, 0) (Hashtbl.find_opt callers caller) in
            Hashtbl.replace callers caller (if is_hits then (h + n, m) else (h, m + n))
          | _ -> ())
      delta
  in
  note "lp_cache.hits." true;
  note "lp_cache.misses." false;
  let rows = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) callers []) in
  if rows = [] then Printf.printf "  lp cache: no lookups recorded\n"
  else
    List.iter
      (fun (caller, (h, m)) ->
        let total = h + m in
        Printf.printf "  lp cache [%s]: %d hits / %d misses (%.1f%% hit rate)\n" caller h
          m
          (if total = 0 then 0.0 else 100. *. float_of_int h /. float_of_int total))
      rows;
  let maps = c "pool.maps" and tasks = c "pool.tasks" in
  let util =
    match Metrics.find delta "pool.utilization" with
    | Some (Metrics.Gauge g) -> g
    | _ -> 0.0
  in
  match Metrics.find delta "pool.task_seconds" with
  | Some (Metrics.Histogram h) when h.Metrics.h_count > 0 ->
    Printf.printf
      "  pool: %d map(s), %d task(s), task time %.3fs total (max %.3fs); last map \
       utilization %.0f%%\n"
      maps tasks h.Metrics.h_sum h.Metrics.h_max (100. *. util)
  | _ -> if maps > 0 then Printf.printf "  pool: %d map(s), %d task(s)\n" maps tasks

let write_profile_json path ~delta prof =
  let doc =
    Json.JObj
      [
        ("command", Json.JStr (String.concat " " (List.tl (Array.to_list Sys.argv))));
        ("metrics", Metrics.to_json delta);
        ("profile", Trace_stats.to_json prof);
      ]
  in
  Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string doc));
  Printf.printf "profile json: wrote %s\n" path

(* Run a subcommand body [f] under the observability layer, with the one
   error exit every subcommand shares. Tracing starts if any traced output
   was asked for, and the metric registry is snapshotted if a delta will be
   reported. After [f] returns or fails, the trace, profile, folded stacks
   and metrics deltas are written. [counters] is evaluated then, so drivers
   that sample a Timeseries sink get their series appended to the trace as
   Perfetto counter tracks. A [Failure] or [Sys_error] from [f] or from
   those writes is printed as "mcast: <msg>" and the run exits 1; seeded
   subcommands pass [seed], which is then printed so the failing run can
   be reproduced verbatim. Any other exception is a bug and propagates. *)
let run ?seed ?(counters = fun () -> []) o f =
  if o.trace <> None || o.profile <> None || o.folded <> None then
    Trace.enable ~capacity:(1 lsl 18) ();
  let before =
    if o.metrics || o.profile <> None then Some (Metrics.snapshot ()) else None
  in
  let write_outputs () =
    let events = Trace.events () and dropped = Trace.dropped () in
    (match o.trace with
    | None -> ()
    | Some path ->
      Trace.export ~counters:(counters ()) path;
      Printf.printf "trace: wrote %d events to %s (%d dropped%s)\n" (List.length events)
        path dropped
        (if dropped > 0 then ": ring full, trace is partial" else ""));
    Trace.disable ();
    let delta = Option.map (fun before -> Metrics.delta ~before (Metrics.snapshot ())) before in
    (match (o.profile, delta) with
    | Some path, Some delta ->
      let prof = Trace_stats.of_events ~dropped events in
      print_newline ();
      print_string (Trace_stats.to_text prof);
      print_lp_attribution delta;
      write_profile_json path ~delta prof
    | _ -> ());
    (match o.folded with
    | None -> ()
    | Some path ->
      Out_channel.with_open_text path (fun oc -> output_string oc (Folded.of_events events));
      Printf.printf "folded stacks: wrote %s\n" path);
    match delta with
    | Some delta when o.metrics ->
      print_string "metrics:\n";
      print_string (Metrics.to_text delta)
    | _ -> ()
  in
  let attempt g = try g (); [] with e -> [ (e, Printexc.get_raw_backtrace ()) ] in
  (* [f] first: [@] evaluates its right operand first. *)
  let body = attempt f in
  match body @ attempt write_outputs with
  | [] -> ()
  | failures ->
    List.iter
      (fun (e, bt) ->
        match e with
        | Failure m | Sys_error m -> Printf.eprintf "mcast: %s\n%!" m
        | e -> Printexc.raise_with_backtrace e bt)
      failures;
    Option.iter
      (fun seed ->
        Printf.eprintf "effective seed: %d (rerun with --seed %d to reproduce)\n%!" seed seed)
      seed;
    exit 1

(* --- time-series / SLO plumbing shared by soak and sessions --- *)

let slo_arg =
  let doc =
    "SLO objective over a sampled series: $(b,SERIES>=T) or $(b,SERIES<=T), \
     optionally followed by comma-separated tuning keys, e.g. \
     $(b,soak.availability>=0.99,fast=20,slow=100,hold=25) (keys: budget, fast, \
     slow, fastburn, slowburn, hold, name). Repeatable. Breaches are evaluated \
     with the standard fast/slow error-budget burn-rate pair. An objective over \
     a series the run never samples is an error (exit 1)."
  in
  let objective =
    Arg.conv
      ( (fun s -> Result.map_error (fun e -> `Msg e) (Slo.parse s)),
        fun fmt o -> Format.pp_print_string fmt (Slo.spec o) )
  in
  Arg.(value & opt_all objective [] & info [ "slo" ] ~docv:"SPEC" ~doc)

let timeseries_arg =
  let doc =
    "Export the sampled time series to $(docv): a $(b,.json) suffix selects the \
     JSON rollup document, anything else OpenMetrics text. Repeatable."
  in
  Arg.(value & opt_all string [] & info [ "timeseries" ] ~docv:"FILE" ~doc)

(* The sink exists whenever something will consume it: an export file, SLO
   objectives to evaluate, or a trace to append counter tracks to. *)
let make_sink ~timeseries ~objectives o =
  if timeseries = [] && objectives = [] && o.trace = None then None
  else Some (Timeseries.create ~slo:objectives ())

let sink_counters sink () =
  match sink with Some s -> Timeseries.counter_tracks s | None -> []

let export_timeseries sink paths =
  match sink with
  | None -> ()
  | Some s ->
    List.iter
      (fun path ->
        let text =
          if Filename.check_suffix path ".json" then Json.to_string (Timeseries.to_json s)
          else Timeseries.to_openmetrics s
        in
        Out_channel.with_open_text path (fun oc -> output_string oc text);
        Printf.printf "timeseries: wrote %d series to %s\n"
          (List.length (Timeseries.names s))
          path)
      paths

(* After the run: an objective over a series the run never sampled was
   never evaluated, so it fails the run instead of passing silently. *)
let print_slo_events sink objectives =
  match sink with
  | Some s when objectives <> [] ->
    (match Timeseries.unsampled s with
    | [] -> ()
    | o :: _ ->
      failwith
        (Printf.sprintf "--slo %s: the run never sampled series %s (sampled: %s)"
           (Slo.spec o) o.Slo.o_series
           (match Timeseries.names s with [] -> "none" | ns -> String.concat ", " ns)));
    let events = Timeseries.slo_events s in
    let breaches =
      List.length (List.filter (fun (e : Slo.event) -> e.Slo.e_kind = `Breach) events)
    in
    Printf.printf "slo: %d objective(s), %d breach(es), %d recover(ies)\n"
      (List.length objectives) breaches
      (List.length events - breaches);
    List.iter
      (fun (e : Slo.event) ->
        Printf.printf "  t=%-10g %-8s %s (fast burn %.2fx, slow %.2fx)\n" e.Slo.e_at
          (match e.Slo.e_kind with `Breach -> "breach" | `Recovery -> "recovery")
          e.Slo.e_objective e.Slo.e_fast_burn e.Slo.e_slow_burn)
      events
  | _ -> ()

(* One-line solver/cache telemetry, printed after the heavy subcommands. *)
let print_perf_counters () =
  let c = Lp_counters.snapshot () in
  let s = Lp_cache.stats () in
  Printf.printf
    "perf: %d LP solves (%d exact), %d pivots; LP cache %d hits / %d misses\n"
    (c.Lp_counters.float_solves + c.Lp_counters.exact_solves)
    c.Lp_counters.exact_solves
    (c.Lp_counters.pivots + c.Lp_counters.exact_pivots)
    s.Lp_cache.hits s.Lp_cache.misses

(* --- generate --- *)

let generate kind seed n_targets out obs =
  run ~seed obs @@ fun () ->
  let rng = Random.State.make [| seed |] in
  let p = platform_of_kind rng kind ~n_targets in
  let text = Platform_io.to_string p in
  match out with
  | None -> print_string text
  | Some path ->
    Platform_io.save path p;
    Printf.printf "wrote %s (%s)\n" path (Platform.describe p)

let generate_cmd =
  let kind =
    kind_term ~doc:(Printf.sprintf "Platform kind, %s." (Arg.doc_alts_enum platform_kinds))
  in
  let out =
    let doc = "Output file (defaults to stdout)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a platform instance")
    Term.(const generate $ kind $ seed_arg $ targets_arg $ out $ obs_term)

(* --- bounds --- *)

let bounds load obs =
  run obs @@ fun () ->
  let p = load () in
  Printf.printf "%s\n" (Platform.describe p);
  Format.printf "topology: %a@." Topology_stats.pp (Topology_stats.compute p);
  let b = Bounds.compute p in
  let show name = function
    | None -> Printf.printf "%-14s infeasible\n" name
    | Some (s : Formulations.solution) ->
      Printf.printf "%-14s period %10.4f  throughput %.6f\n" name s.Formulations.period
        s.Formulations.throughput
  in
  show "Multicast-LB" b.Bounds.lb;
  show "Multicast-UB" b.Bounds.ub;
  show "Broadcast-EB" b.Bounds.broadcast;
  match Bounds.check b ~n_targets:(List.length p.Platform.targets) with
  | Ok () -> Printf.printf "bound chain: OK\n"
  | Error e -> Printf.printf "bound chain: VIOLATED (%s)\n" e

let bounds_cmd =
  Cmd.v (Cmd.info "bounds" ~doc:"LP bounds of an instance")
    Term.(const bounds $ platform_file $ obs_term)

(* --- heuristics --- *)

let heuristics load tries sources obs =
  run obs @@ fun () ->
  let p = load () in
  Printf.printf "%s\n" (Platform.describe p);
  let report = Heuristics.run_all ?max_tries_per_round:tries ~max_sources:sources p in
  Printf.printf "%-16s %12s %12s %9s\n" "method" "period" "throughput" "time(s)";
  List.iter
    (fun (e : Heuristics.entry) ->
      Printf.printf "%-16s %12.4f %12.6f %9.2f\n" e.Heuristics.name e.Heuristics.period
        e.Heuristics.throughput e.Heuristics.wall_time)
    report.Heuristics.entries

let heuristics_cmd =
  let tries =
    let doc = "Cap LP probes per improvement round (default: exhaustive)." in
    Arg.(value & opt (some pos_int) None & info [ "tries" ] ~docv:"K" ~doc)
  in
  let sources =
    let doc = "Maximum secondary-source count for Multisource MC." in
    Arg.(value & opt pos_int 4 & info [ "max-sources" ] ~docv:"K" ~doc)
  in
  Cmd.v
    (Cmd.info "heuristics" ~doc:"Run the paper's heuristic portfolio")
    Term.(const heuristics $ platform_file $ tries $ sources $ obs_term)

(* --- tree --- *)

let tree load dot_out obs =
  run obs @@ fun () ->
  let p = load () in
  match Mcph.run p with
  | None -> failwith "some target is unreachable"
  | Some r ->
    Printf.printf "MCPH tree: period %s, throughput %s\n"
      (Rat.to_string r.Mcph.period)
      (Rat.to_string (Rat.inv r.Mcph.period));
    List.iter
      (fun (u, v) ->
        Printf.printf "  %s -> %s\n" (Digraph.label p.Platform.graph u)
          (Digraph.label p.Platform.graph v))
      (Multicast_tree.edges r.Mcph.tree);
    match dot_out with
    | None -> ()
    | Some path ->
      let dot =
        Dot.digraph ~highlight_nodes:p.Platform.targets
          ~highlight_edges:(Multicast_tree.edges r.Mcph.tree) p.Platform.graph
      in
      Dot.save path dot;
      Printf.printf "wrote %s\n" path

let tree_cmd =
  let dot =
    let doc = "Write a Graphviz DOT file with the tree highlighted." in
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc)
  in
  Cmd.v (Cmd.info "tree" ~doc:"One-port MCPH multicast tree")
    Term.(const tree $ platform_file $ dot $ obs_term)

(* --- simulate --- *)

let simulate load periods obs =
  run obs @@ fun () ->
  let sched = mcph_schedule (load ()) in
  Printf.printf "schedule: period %s, %d messages/period, %d transfers\n"
    (Rat.to_string sched.Schedule.period)
    sched.Schedule.messages_per_period
    (List.length sched.Schedule.transfers);
  match Event_sim.run sched ~periods with
  | Error e -> failwith ("simulation failed: " ^ e)
  | Ok stats ->
    Printf.printf "simulated %d periods: throughput %.6f (predicted %.6f), max latency %.1f\n"
      stats.Event_sim.periods stats.Event_sim.measured_throughput
      (Rat.to_float sched.Schedule.throughput)
      stats.Event_sim.max_latency

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate" ~doc:"Schedule the MCPH tree and replay it")
    Term.(const simulate $ platform_file $ periods_arg 12 $ obs_term)

(* --- broadcast-schedule --- *)

let broadcast_schedule load periods obs =
  run obs @@ fun () ->
  let p = load () in
  match Formulations.broadcast_eb p with
  | None -> failwith "broadcast infeasible (disconnected platform)"
  | Some sol -> (
    Printf.printf "Broadcast-EB: period %.4f (throughput %.6f)\n" sol.Formulations.period
      sol.Formulations.throughput;
    match Arborescence_packing.schedule_of_broadcast p sol with
    | Error e -> failwith e
    | Ok (sched, thr) ->
      Printf.printf "packed into %d arborescences, schedulable throughput %s\n"
        (Array.length sched.Schedule.trees)
        (Rat.to_string thr);
      let stats = replay_checked sched ~periods in
      Printf.printf "simulated: measured throughput %.6f\n" stats.Event_sim.measured_throughput)

let broadcast_schedule_cmd =
  Cmd.v
    (Cmd.info "broadcast-schedule"
       ~doc:"Pack Broadcast-EB into arborescences, schedule and simulate")
    Term.(const broadcast_schedule $ platform_file $ periods_arg 10 $ obs_term)

(* --- scatter-schedule --- *)

let scatter_schedule load periods obs =
  run obs @@ fun () ->
  let p = load () in
  match Formulations.multicast_ub p with
  | None -> failwith "some target is unreachable"
  | Some sol -> (
    Printf.printf "Multicast-UB (scatter): period %.4f per multicast\n"
      sol.Formulations.period;
    match Scatter_schedule.of_solution p sol with
    | Error e -> failwith e
    | Ok sched ->
      Printf.printf "schedule: %d chains, message rate %s per time unit\n"
        (Array.length sched.Schedule.trees)
        (Rat.to_string (Scatter_schedule.message_rate sched));
      let stats = replay_checked sched ~periods in
      Printf.printf "simulated: measured message rate %.6f\n"
        stats.Event_sim.measured_throughput)

let scatter_schedule_cmd =
  Cmd.v
    (Cmd.info "scatter-schedule"
       ~doc:"Build and simulate the schedule realizing Multicast-UB")
    Term.(const scatter_schedule $ platform_file $ periods_arg 10 $ obs_term)

(* --- resilience --- *)

let resilience (seed, load) kill_edges kill_nodes degrades at periods online
    max_attempts drop_order storm storm_k incremental jobs obs =
  run ~seed obs @@ fun () ->
  let p = load () in
  let scenario =
    List.map (fun (u, v) -> Fault.Kill_edge { src = u; dst = v; at }) kill_edges
    @ List.map (fun v -> Fault.Kill_node { node = v; at }) kill_nodes
    @ List.map
        (fun (u, v, f) ->
          Fault.Degrade_edge { src = u; dst = v; at; factor = f })
        degrades
  in
  let scenario =
    match storm with
    | None -> scenario
    | Some s ->
      let rng = Random.State.make [| seed; 6007 |] in
      scenario
      @ (match s with
        | `Burst -> Fault.random_burst rng p ~k:storm_k ~window:Rat.one ~at
        | `Endpoint -> Fault.shared_endpoint_kills rng p ~endpoints:storm_k ~at
        | `Subtree -> Fault.subtree_outage rng p ~at)
  in
  if scenario = [] then
    failwith "no fault events: pass --kill-edge, --kill-node, --degrade or --storm";
  (match Fault.validate p scenario with Ok () -> () | Error e -> failwith e);
  Printf.printf "%s\n" (Platform.describe p);
  Printf.printf "scenario: %s\n" (Fault.describe scenario);
  let sched = mcph_schedule p in
  let periods = max periods (Schedule.init_periods sched + 3) in
  (* The pristine and faulted replays are independent; run them on the
     pool (order-preserving, so the output is the same for any --jobs). *)
  let base, fs =
    match
      Pool.map ~jobs
        (fun run -> run ())
        [
          (fun () -> `Base (Event_sim.run sched ~periods));
          (fun () ->
            `Faulted (Event_sim.run_with_faults sched ~faults:scenario ~periods));
        ]
    with
    | [ `Base b; `Faulted fs ] -> (b, fs)
    | _ -> assert false
  in
  (match base with
  | Error e -> failwith ("baseline replay failed: " ^ e)
  | Ok stats ->
    Printf.printf "baseline: throughput %.6f (replay measured %.6f over %d periods)\n"
      (Rat.to_float sched.Schedule.throughput)
      stats.Event_sim.measured_throughput periods);
  Printf.printf
    "under faults: %d deliveries lost, %d deliveries made, %d multicasts still \
     complete, surviving throughput %.6f\n"
    (List.length fs.Event_sim.f_losses)
    fs.Event_sim.f_delivered fs.Event_sim.f_completed fs.Event_sim.f_measured_throughput;
  if online then begin
    let policy =
      let d = Recovery_loop.default_policy p in
      {
        Recovery_loop.max_attempts;
        horizon_periods = periods;
        drop_order = (if drop_order = [] then d.Recovery_loop.drop_order else drop_order);
      }
    in
    match Recovery_loop.run ~policy p sched scenario with
    | Error e -> failwith ("recovery policy rejected: " ^ e)
    | Ok o -> (
      Format.printf "%a@." Recovery_loop.pp_outcome o;
      print_perf_counters ();
      (* Unrecovered runs exit nonzero so CI and scripts can detect them. *)
      match o.Recovery_loop.final with
      | `Fallback _ -> failwith "recovery failed: the checkpointed schedule stands"
      | _ -> ())
  end
  else
  match
    if incremental then Repair.plan_incremental ~before:sched p (Fault.damage scenario)
    else Repair.plan ~before:sched p (Fault.damage scenario)
  with
  | Error e -> failwith ("repair failed: " ^ e)
  | Ok rep ->
    let stats = replay_checked rep.Repair.schedule ~periods in
    Printf.printf
      "repaired schedule verified: Schedule.check OK, replay measured %.6f over %d periods\n"
      stats.Event_sim.measured_throughput stats.Event_sim.periods;
    Format.printf "%a@." Repair.pp_report rep;
    print_perf_counters ()

let resilience_cmd =
  let kill_edge =
    let doc = "Kill the directed edge $(docv) at time --at (repeatable)." in
    Arg.(value & opt_all (pair ~sep:',' int int) [] & info [ "kill-edge" ] ~docv:"U,V" ~doc)
  in
  let kill_node =
    let doc = "Kill node $(docv) and all its ports at time --at (repeatable)." in
    Arg.(value & opt_all int [] & info [ "kill-node" ] ~docv:"V" ~doc)
  in
  let degrade =
    let doc = "Slow edge U,V down by factor F (a rational >= 1) at time --at (repeatable)." in
    Arg.(
      value
      & opt_all (t3 ~sep:',' int int at_least_one_rat) []
      & info [ "degrade" ] ~docv:"U,V,F" ~doc)
  in
  let at =
    let doc = "Fire time of every fault event (rational)." in
    Arg.(value & opt nonneg_rat Rat.zero & info [ "at" ] ~docv:"T" ~doc)
  in
  let online =
    let doc =
      "Drive the online recovery controller (retry/backoff, degraded mode, event log) \
       instead of the single-shot repair."
    in
    Arg.(value & flag & info [ "online" ] ~doc)
  in
  let max_attempts =
    let doc = "Re-plan attempts before entering degraded mode (with --online)." in
    Arg.(value & opt pos_int 5 & info [ "max-attempts" ] ~docv:"N" ~doc)
  in
  let drop_order =
    let doc =
      "Degraded-mode sacrifice order: targets dropped first when the survivor cannot \
       serve everyone (with --online; defaults to highest-numbered first)."
    in
    Arg.(value & opt (list int) [] & info [ "drop-order" ] ~docv:"V1,V2,..." ~doc)
  in
  let storm =
    let doc =
      "Add a seeded correlated failure storm to the scenario: $(b,burst) (k kills \
       inside a one-unit window), $(b,endpoint) (every link of k shared endpoints), \
       or $(b,subtree) (a MAN router and all its LAN hosts)."
    in
    let storms = [ ("burst", `Burst); ("endpoint", `Endpoint); ("subtree", `Subtree) ] in
    Arg.(value & opt (some (enum storms)) None & info [ "storm" ] ~docv:"KIND" ~doc)
  in
  let storm_k =
    let doc = "Burst size / endpoint count for --storm." in
    Arg.(value & opt pos_int 3 & info [ "storm-k" ] ~docv:"K" ~doc)
  in
  let incremental =
    let doc =
      "Use the O(damage) incremental repair (patch the running schedule, full re-plan \
       fallback) instead of the full re-plan for the single-shot repair."
    in
    Arg.(value & flag & info [ "incremental" ] ~doc)
  in
  Cmd.v
    (Cmd.info "resilience"
       ~doc:"Inject failures into a replay, re-plan on the survivors, report retention")
    Term.(
      const resilience $ platform_term $ kill_edge $ kill_node
      $ degrade $ at $ periods_arg 12 $ online $ max_attempts $ drop_order $ storm $ storm_k
      $ incremental $ jobs_arg $ obs_term)

(* --- robust --- *)

(* Seeded correlated storms in the robust planner's vocabulary: cycle
   through the three generator families so a small count already mixes
   bursts, shared endpoints and subtree outages. *)
let storm_failures p ~seed ~storms =
  List.init storms (fun i ->
      let rng = Random.State.make [| seed; 6007; i |] in
      let name, scenario =
        match i mod 3 with
        | 0 -> ("burst", Fault.random_burst rng p ~k:3 ~window:Rat.one ~at:Rat.zero)
        | 1 -> ("endpoint", Fault.shared_endpoint_kills rng p ~endpoints:2 ~at:Rat.zero)
        | _ -> ("subtree", Fault.subtree_outage rng p ~at:Rat.zero)
      in
      Robust_plan.Correlated
        (Printf.sprintf "%s-storm %d: %s" name i (Fault.describe scenario),
         Fault.damage scenario))

let robust (seed, load) loss_bound max_scenarios with_lb storms jobs obs =
  run ~seed obs @@ fun () ->
  let p = load () in
  Printf.printf "%s\n" (Platform.describe p);
  let extra_failures = storm_failures p ~seed ~storms in
  match Robust_plan.plan ~loss_bound ~max_scenarios ~seed ~with_lb ~extra_failures ~jobs p with
  | Error e -> failwith e
  | Ok r ->
    Format.printf "%a@." Robust_plan.pp_report r;
    let chosen = r.Robust_plan.chosen in
    (match Schedule.check chosen.Robust_plan.schedule with
    | Ok () -> Printf.printf "chosen schedule: Schedule.check OK\n"
    | Error e -> failwith ("chosen schedule fails check: " ^ e));
    Printf.printf "critical links of the nominal plan: %s\n"
      (String.concat ", "
         (List.map
            (fun (u, v) -> Robust_plan.describe_failure p (Robust_plan.Link (u, v)))
            r.Robust_plan.critical_edges));
    if with_lb then begin
      Printf.printf "per-scenario survivor LB references (chosen plan):\n";
      List.iter
        (fun (s : Robust_plan.scenario_score) ->
          Printf.printf "  %-24s retention %6.1f%%  survivor LB %s\n"
            (Robust_plan.describe_failure p s.Robust_plan.sc_failure)
            (100. *. s.Robust_plan.sc_retention)
            (match s.Robust_plan.sc_survivor_lb with
            | None -> "infeasible"
            | Some lb -> Printf.sprintf "%.6f" lb))
        chosen.Robust_plan.cand_score.Robust_plan.scenario_scores
    end;
    print_perf_counters ()

let robust_cmd =
  let loss_bound =
    let doc = "Maximum tolerated nominal-throughput loss (fraction of the best nominal)." in
    Arg.(value & opt float 0.1 & info [ "loss-bound" ] ~docv:"F" ~doc)
  in
  let max_scenarios =
    let doc = "Cap on evaluated failure scenarios (larger sets are sampled and logged)." in
    Arg.(value & opt nonneg_int 64 & info [ "max-scenarios" ] ~docv:"N" ~doc)
  in
  let with_lb =
    let doc = "Also solve the Multicast-LB on every survivor (per-scenario reference)." in
    Arg.(value & flag & info [ "with-lb" ] ~doc)
  in
  let storms =
    let doc =
      "Additionally score $(docv) seeded correlated storms (bursts, shared-endpoint \
       outages, subtree outages) alongside the single-failure scenarios."
    in
    Arg.(value & opt nonneg_int 0 & info [ "storms" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "robust"
       ~doc:"Proactive robust planning: maximize worst-case single-failure retention")
    Term.(
      const robust $ platform_term $ loss_bound
      $ max_scenarios $ with_lb $ storms $ jobs_arg $ obs_term)

(* --- soak --- *)

let mtbf_arg =
  let doc =
    "Mean time between failures for the renewal scenarios (per component; with ~60 \
     links, mtbf 1500 over a 600-unit horizon means roughly 25 failures)."
  in
  Arg.(value & opt pos_float 1500. & info [ "mtbf" ] ~docv:"T" ~doc)

let mttr_arg =
  let doc = "Mean time to repair for the renewal scenarios." in
  Arg.(value & opt pos_float 30. & info [ "mttr" ] ~docv:"T" ~doc)

let soak_scenarios =
  [
    ("renewal", `Renewal);
    ("renewal-nodes", `Renewal_nodes);
    ("renewal-mixed", `Renewal_mixed);
    ("flapping", `Flapping);
    ("diurnal", `Diurnal);
  ]

let soak (seed, load) horizon scenario_kind mtbf mttr flap_links flaps
    mean_up mean_down waves wave_period wave_factor wave_rate controller tokens
    token_refill hysteresis min_availability show_log (objectives, incidents) timeseries obs =
  let sink = make_sink ~timeseries ~objectives obs in
  run ~seed ~counters:(sink_counters sink) obs @@ fun () ->
  let p = load () in
  let rng = Random.State.make [| seed; 7001 |] in
  let scenario =
    match scenario_kind with
    | `Renewal -> Fault.renewal_link_faults rng p ~mtbf ~mttr ~horizon
    | `Renewal_nodes -> Fault.renewal_node_faults rng p ~mtbf ~mttr ~horizon
    | `Renewal_mixed ->
      (* Node failures are rarer than link failures on real platforms;
         double the node MTBF so mixed runs are link-dominated. *)
      Fault.renewal_link_faults rng p ~mtbf ~mttr ~horizon
      @ Fault.renewal_node_faults rng p ~mtbf:(2. *. mtbf) ~mttr ~horizon
    | `Flapping ->
      Fault.flapping_links rng p ~links:flap_links ~flaps ~mean_up ~mean_down
        ~at:Rat.zero
    | `Diurnal ->
      Fault.diurnal_degradation rng p ~waves ~period:wave_period ~factor:wave_factor
        ~rate:wave_rate
  in
  Printf.printf "%s\n" (Platform.describe p);
  Printf.printf "scenario: %s, %d fault events, horizon %s\n"
    (enum_name soak_scenarios scenario_kind)
    (List.length scenario) (Rat.to_string horizon);
  let sched = mcph_schedule p in
  let base = Soak.default_config p in
  let config =
    { base with Soak.controller; token_capacity = tokens; token_refill; hysteresis }
  in
  match Soak.run ~config ?telemetry:sink p sched scenario ~horizon with
  | Error e -> failwith ("soak rejected: " ^ e)
  | Ok rep ->
    Format.printf "%a@." Soak.pp_report rep;
    if show_log then begin
      Printf.printf "event log:\n";
      List.iter (fun ev -> Format.printf "  %a@." Soak.pp_event ev) rep.Soak.sk_log
    end;
    print_slo_events sink objectives;
    (match (incidents, sink) with
    | Some path, Some s ->
      let incidents = Incident.of_soak ~faults:scenario rep (Timeseries.slo_events s) in
      print_string (Incident.to_text incidents);
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Json.to_string (Incident.to_json incidents)));
      Printf.printf "incidents json: wrote %s\n" path
    | _ -> ());
    export_timeseries sink timeseries;
    print_perf_counters ();
    match min_availability with
    | Some m when rep.Soak.sk_availability < m ->
      failwith
        (Printf.sprintf "availability %.4f below the required --min-availability %.4f"
           rep.Soak.sk_availability m)
    | _ -> ()

let soak_cmd =
  let scenario =
    let doc =
      "Fault timeline: $(b,renewal) (per-link fail/repair renewal process), \
       $(b,renewal-nodes) (per-node), $(b,renewal-mixed) (both, node MTBF doubled), \
       $(b,flapping) (a few links cycling up/down fast), or $(b,diurnal) \
       (congestion waves degrading links, then clearing)."
    in
    Arg.(value & opt (enum soak_scenarios) `Renewal & info [ "scenario" ] ~docv:"KIND" ~doc)
  in
  let flap_links =
    let doc = "Number of flapping links (with --scenario flapping)." in
    Arg.(value & opt pos_int 3 & info [ "flap-links" ] ~docv:"N" ~doc)
  in
  let flaps =
    let doc = "Kill/revive cycles per flapping link." in
    Arg.(value & opt pos_int 6 & info [ "flaps" ] ~docv:"N" ~doc)
  in
  let mean_up =
    let doc = "Mean up-time between flaps." in
    Arg.(value & opt pos_float 40. & info [ "mean-up" ] ~docv:"T" ~doc)
  in
  let mean_down =
    let doc = "Mean down-time per flap." in
    Arg.(value & opt pos_float 5. & info [ "mean-down" ] ~docv:"T" ~doc)
  in
  let waves =
    let doc = "Number of congestion waves (with --scenario diurnal)." in
    Arg.(value & opt pos_int 4 & info [ "waves" ] ~docv:"N" ~doc)
  in
  let wave_period =
    let doc = "Length of one congestion wave (rational)." in
    Arg.(value & opt pos_rat (Rat.of_int 150) & info [ "wave-period" ] ~docv:"T" ~doc)
  in
  let wave_factor =
    let doc = "Degradation factor applied during a wave (rational >= 1)." in
    Arg.(value & opt at_least_one_rat (Rat.of_int 3) & info [ "wave-factor" ] ~docv:"F" ~doc)
  in
  let wave_rate =
    let doc = "Per-link probability of degrading in each wave." in
    Arg.(value & opt probability 0.25 & info [ "wave-rate" ] ~docv:"P" ~doc)
  in
  let controller =
    let doc =
      "Recovery controller: $(b,damped) (flap damping, re-plan token bucket, \
       re-integration hysteresis) or $(b,naive) (full re-plan on every change — \
       the ablation baseline)."
    in
    let controllers = [ ("damped", Soak.Damped); ("naive", Soak.Naive) ] in
    Arg.(value & opt (enum controllers) Soak.Damped & info [ "controller" ] ~docv:"C" ~doc)
  in
  let tokens =
    let doc = "Full-re-plan token bucket capacity (0 = incremental patches only)." in
    Arg.(value & opt nonneg_int 4 & info [ "tokens" ] ~docv:"N" ~doc)
  in
  let token_refill =
    let doc = "Simulated time to regain one re-plan token." in
    Arg.(value & opt pos_float 60. & info [ "token-refill" ] ~docv:"T" ~doc)
  in
  let hysteresis =
    let doc = "Minimum relative throughput gain to re-integrate healed capacity." in
    Arg.(value & opt nonneg_float 0.05 & info [ "hysteresis" ] ~docv:"F" ~doc)
  in
  let min_availability =
    let doc = "Exit nonzero when availability lands below $(docv) (CI gate)." in
    Arg.(value & opt (some probability) None & info [ "min-availability" ] ~docv:"F" ~doc)
  in
  let show_log =
    let doc = "Print the full timestamped controller event log." in
    Arg.(value & flag & info [ "log" ] ~doc)
  in
  (* --incidents reports on the --slo objectives, so it needs one. *)
  let slo_incidents =
    let doc =
      "Print the fault -> breach -> repair -> recovery incident timelines of the \
       $(b,--slo) objectives (at least one required) and write them as JSON to \
       $(docv). Faults up to 25 time units before a breach count as probable causes."
    in
    let incidents = Arg.(value & opt (some string) None & info [ "incidents" ] ~docv:"FILE" ~doc) in
    let check slo path =
      if path <> None && slo = [] then
        `Error (true, "--incidents needs at least one --slo objective")
      else `Ok (slo, path)
    in
    Term.(ret (const check $ slo_arg $ incidents))
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Chaos soak: run the recovery controller continuously over a fail/repair \
             timeline")
    Term.(
      const soak $ platform_term $ horizon_arg 600 $ scenario
      $ mtbf_arg $ mttr_arg $ flap_links $ flaps $ mean_up $ mean_down $ waves $ wave_period
      $ wave_factor $ wave_rate $ controller $ tokens $ token_refill $ hysteresis
      $ min_availability $ show_log $ slo_incidents $ timeseries_arg $ obs_term)

(* --- sessions --- *)

let session_scenarios =
  [ ("none", `None); ("renewal", `Renewal); ("burst", `Burst); ("flapping", `Flapping) ]

let sessions (seed, load) horizon arrival_rate hold_mean demand_lo
    demand_hi flash_rate epoch mode jobs scenario_kind mtbf mttr burst_k burst_at
    min_admitted show_digest show_epochs objectives slo_enforce timeseries obs =
  let sink = make_sink ~timeseries ~objectives obs in
  run ~seed ~counters:(sink_counters sink) obs @@ fun () ->
  let p = load () in
  let params =
    {
      Workload.default_params with
      arrival_rate;
      hold_mean;
      demand_frac = (demand_lo, demand_hi);
      flash_rate;
    }
  in
  (match Workload.validate_params params with
  | Ok () -> ()
  | Error e -> failwith e);
  (* Distinct seed streams so tweaking the fault scenario never perturbs
     the offered workload (the same separation soak uses). *)
  let workload =
    Workload.generate (Random.State.make [| seed; 9001 |]) p params ~horizon
  in
  let frng = Random.State.make [| seed; 9002 |] in
  let faults =
    match scenario_kind with
    | `None -> []
    | `Renewal -> Fault.renewal_link_faults frng p ~mtbf ~mttr ~horizon
    | `Burst ->
      Fault.random_burst frng p ~k:burst_k ~window:Rat.one ~at:burst_at
    | `Flapping ->
      Fault.flapping_links frng p ~links:3 ~flaps:6 ~mean_up:40. ~mean_down:5.
        ~at:Rat.zero
  in
  let config =
    { Horizon.epoch; replan_mode = mode; jobs }
  in
  Printf.printf "%s\n" (Platform.describe p);
  Printf.printf "workload: %s\n" (Workload.describe workload);
  Printf.printf "scenario: %s, %d fault events, horizon %s, epoch %s (%s)\n"
    (enum_name session_scenarios scenario_kind)
    (List.length faults) (Rat.to_string horizon)
    (Rat.to_string config.Horizon.epoch)
    (match mode with `Incremental -> "incremental" | `Cold -> "cold");
  match Horizon.run ~config ~faults ?telemetry:sink ~slo_enforce p workload ~horizon with
  | Error e -> failwith ("sessions rejected: " ^ e)
  | Ok rep ->
    Format.printf "%a@." Horizon.pp_report rep;
    if show_epochs then begin
      Printf.printf "epoch log:\n";
      List.iter
        (fun e ->
          if
            e.Horizon.ep_arrivals + e.Horizon.ep_replans + e.Horizon.ep_suspended > 0
          then
            Printf.printf
              "  epoch %3d t=%-6s %d arrivals, %d admitted, %d rejected, %d \
               preempted, %d replans (%d skipped), %d active\n"
              e.Horizon.ep_index
              (Rat.to_string e.Horizon.ep_time)
              e.Horizon.ep_arrivals e.Horizon.ep_admitted e.Horizon.ep_rejected
              e.Horizon.ep_preempted e.Horizon.ep_replans
              e.Horizon.ep_replans_skipped e.Horizon.ep_active)
        rep.Horizon.hz_epochs
    end;
    if show_digest then Printf.printf "digest: %s\n" (Horizon.digest rep);
    print_slo_events sink objectives;
    export_timeseries sink timeseries;
    print_perf_counters ();
    (match min_admitted with
    | Some m when rep.Horizon.hz_admitted < m ->
      failwith
        (Printf.sprintf "%d sessions admitted, below the required --min-admitted %d"
           rep.Horizon.hz_admitted m)
    | _ -> ())

let sessions_cmd =
  let arrival_rate =
    let doc = "Mean session arrivals per time unit." in
    Arg.(value & opt float 0.1 & info [ "arrival-rate" ] ~docv:"R" ~doc)
  in
  let hold_mean =
    let doc = "Mean session holding time (heavy-tailed Pareto)." in
    Arg.(value & opt float 80. & info [ "hold-mean" ] ~docv:"T" ~doc)
  in
  let demand_lo =
    let doc = "Lower demand fraction of a session's standalone capacity." in
    Arg.(value & opt float 0.3 & info [ "demand-lo" ] ~docv:"F" ~doc)
  in
  let demand_hi =
    let doc = "Upper demand fraction of a session's standalone capacity." in
    Arg.(value & opt float 0.9 & info [ "demand-hi" ] ~docv:"F" ~doc)
  in
  let flash_rate =
    let doc = "Flash crowds per time unit (0 disables them)." in
    Arg.(value & opt float 0.005 & info [ "flash-rate" ] ~docv:"R" ~doc)
  in
  let epoch =
    let doc = "Planning epoch length (rational time units)." in
    Arg.(value & opt pos_rat (Rat.of_int 5) & info [ "epoch" ] ~docv:"T" ~doc)
  in
  let mode =
    let doc =
      "Re-planning mode: $(b,incremental) (change-driven, warm-started) or \
       $(b,cold) (every live session from scratch each epoch — the S1 ablation \
       baseline). The modes share every decision rule but are not guaranteed to \
       admit the same sessions: capacity a re-plan frees mid-epoch goes at once \
       to a hungry session in cold mode, one epoch later in incremental mode."
    in
    let modes = [ ("incremental", `Incremental); ("cold", `Cold) ] in
    Arg.(value & opt (enum modes) `Incremental & info [ "mode" ] ~docv:"M" ~doc)
  in
  let scenario =
    let doc =
      "Fault timeline: $(b,none), $(b,renewal) (per-link fail/repair renewal \
       process), $(b,burst) (one correlated failure burst), or $(b,flapping)."
    in
    Arg.(value & opt (enum session_scenarios) `None & info [ "scenario" ] ~docv:"KIND" ~doc)
  in
  let burst_k =
    let doc = "Entities killed by the burst scenario." in
    Arg.(value & opt pos_int 4 & info [ "burst-k" ] ~docv:"N" ~doc)
  in
  let burst_at =
    let doc = "Burst instant (rational)." in
    Arg.(value & opt nonneg_rat (Rat.of_int 150) & info [ "burst-at" ] ~docv:"T" ~doc)
  in
  let min_admitted =
    let doc = "Exit nonzero when fewer than $(docv) sessions are admitted (CI gate)." in
    Arg.(value & opt (some nonneg_int) None & info [ "min-admitted" ] ~docv:"N" ~doc)
  in
  let show_digest =
    let doc =
      "Print the decision digest (bit-identical across $(b,--jobs) values)."
    in
    Arg.(value & flag & info [ "digest" ] ~doc)
  in
  let show_epochs =
    let doc = "Print the per-epoch log (epochs with any activity)." in
    Arg.(value & flag & info [ "epochs" ] ~doc)
  in
  let slo_enforce =
    let doc =
      "Feed per-session burn rates back into the planner: sessions burning their \
       error budget apply re-plans first and are degraded/preempted last within \
       their priority class. Admission outcomes are unchanged; worst-case \
       delivered fraction improves."
    in
    Arg.(value & flag & info [ "slo-enforce" ] ~doc)
  in
  Cmd.v
    (Cmd.info "sessions"
       ~doc:"Online session engine: rolling-horizon admission, incremental \
             re-planning and priority preemption over a churning session stream")
    Term.(
      const sessions $ platform_term $ horizon_arg 300
      $ arrival_rate $ hold_mean $ demand_lo $ demand_hi $ flash_rate $ epoch $ mode
      $ jobs_arg $ scenario $ mtbf_arg $ mttr_arg $ burst_k $ burst_at $ min_admitted
      $ show_digest $ show_epochs $ slo_arg $ slo_enforce $ timeseries_arg $ obs_term)

(* --- prefix and gadget --- *)

(* The set-cover instance flags of [prefix] and [gadget]; only the default
   universe size differs. *)
let cover_args ~universe =
  let flag name default ~docv ~doc = Arg.(value & opt pos_int default & info [ name ] ~docv ~doc) in
  Term.(
    const (fun universe n_sets bound -> (universe, n_sets, bound))
    $ flag "universe" universe ~docv:"N" ~doc:"Universe size."
    $ flag "sets" 4 ~docv:"K" ~doc:"Number of subsets."
    $ flag "bound" 2 ~docv:"B" ~doc:"Cover size bound.")

(* The seeded random instance both commands start from, printed. *)
let random_cover seed ~density (universe, n_sets, bound) =
  if bound > n_sets then failwith (Printf.sprintf "--bound %d exceeds --sets %d" bound n_sets);
  let cover = Set_cover.random (Random.State.make [| seed |]) ~universe ~n_sets ~density in
  Format.printf "instance: %a@." Set_cover.pp cover;
  cover

let prefix_cmd_run seed ((_, _, bound) as args) obs =
  run obs @@ fun () ->
  let cover = random_cover seed ~density:0.4 args in
  match Set_cover.minimum cover with
  | None -> print_endline "instance not coverable"
  | Some chosen ->
    Printf.printf "minimum cover: %d subsets; bound B = %d\n" (List.length chosen) bound;
    let gadget = Prefix_gadget.build cover ~bound in
    (match Prefix_schedule.scheme_of_cover gadget ~chosen with
    | Error e -> print_endline ("scheme rejected: " ^ e)
    | Ok occ ->
      Printf.printf
        "allocation scheme max occupation: %s -> throughput-1 feasible: %b\n"
        (Rat.to_string (Prefix_schedule.max_occupation occ))
        (Prefix_schedule.is_feasible occ))

let prefix_cmd =
  Cmd.v
    (Cmd.info "prefix" ~doc:"Theorem 5 parallel-prefix gadget walk-through")
    Term.(const prefix_cmd_run $ seed_arg $ cover_args ~universe:5 $ obs_term)

let gadget seed ((_, _, bound) as args) obs =
  run obs @@ fun () ->
  let cover = random_cover seed ~density:0.35 args in
  let k_star =
    match Set_cover.minimum cover with
    | Some m -> List.length m
    | None -> -1
  in
  let thr, _, ok = Complexity.verify_gadget_correspondence cover ~bound in
  Printf.printf "minimum cover: %d; B = %d\n" k_star bound;
  Printf.printf "best single-tree throughput on the gadget: %.4f (B/K* = %.4f) — %s\n" thr
    (float_of_int bound /. float_of_int k_star)
    (if ok then "Theorem 1 correspondence holds" else "MISMATCH");
  let p = Complexity.gadget cover ~bound in
  match Formulations.multicast_lb p with
  | None -> ()
  | Some s ->
    Printf.printf "Multicast-LB throughput (fractional cover bound): %.4f\n"
      s.Formulations.throughput

let gadget_cmd =
  Cmd.v
    (Cmd.info "gadget" ~doc:"Set-cover gadget and the NP-hardness correspondence")
    Term.(const gadget $ seed_arg $ cover_args ~universe:6 $ obs_term)

let main_cmd =
  let doc = "steady-state pipelined multicast on heterogeneous platforms" in
  Cmd.group (Cmd.info "mcast" ~version:"1.0.0" ~doc)
    [
      generate_cmd;
      bounds_cmd;
      heuristics_cmd;
      tree_cmd;
      simulate_cmd;
      broadcast_schedule_cmd;
      scatter_schedule_cmd;
      resilience_cmd;
      robust_cmd;
      soak_cmd;
      sessions_cmd;
      prefix_cmd;
      gadget_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
