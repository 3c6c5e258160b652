(* Runs one workload: set-up, then timed passes over its deck; with
   [~trace:true], untraced and traced passes share the time and the traced
   passes' spans and counters give the per-layer metrics. *)

type workload = {
  name : string;
  jobs : int;  (** [Pool] width the workload plans with *)
  setup : seed:int -> smoke:bool -> Acc.t -> unit;
      (** builds the inputs and returns the measured pass over them *)
}

let workloads =
  [
    { name = "portfolio"; jobs = 1; setup = Wl_portfolio.setup };
    { name = "sessions"; jobs = Wl_sessions.jobs; setup = Wl_sessions.setup };
    { name = "soak"; jobs = 1; setup = Wl_soak.setup };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("peak_rss_mb", "MB");
    ("plan_p50_ms", "ms");
    ("epoch_p50_ms", "ms");
    ("epoch_p95_ms", "ms");
    ("period_over_lb", "ratio");
    ("admitted_frac", "ratio");
    ("availability", "ratio");
  ]

let per_layer =
  [
    ("lp.solves", "count");
    ("lp.pivots", "count");
    ("lp.exact_solves", "count");
    ("lp.warm_hit_ratio", "ratio");
    ("lp.cut_rounds", "count");
    ("lp.simplex_s", "s");
    ("lp.ns_per_pivot", "ns");
    ("lp.separation_s", "s");
    ("lp.cache_hit_ratio", "ratio");
    ("lp.self_s", "s");
    ("core.bounds_ms", "ms");
    ("core.mcph_ms", "ms");
    ("core.augmented_ms", "ms");
    ("core.reduced_ms", "ms");
    ("core.multisource_ms", "ms");
    ("core.schedule_ms", "ms");
    ("core.augmented_solves", "count");
    ("core.reduced_solves", "count");
    ("core.repair_plans", "count");
    ("core.repair_patched", "count");
    ("core.repair_fallback", "count");
    ("core.mcph_runs", "count");
    ("core.self_s", "s");
    ("sim.replays", "count");
    ("sim.replay_s", "s");
    ("sim.replay_ms_per_call", "ms");
    ("sim.self_s", "s");
    ("session.replans", "count");
    ("session.replans_skipped", "count");
    ("session.replan_ratio", "ratio");
    ("session.preemptions", "count");
    ("session.self_s", "s");
    ("exec.tasks", "count");
    ("exec.utilization", "ratio");
    ("exec.self_s", "s");
    ("obs.trace_overhead", "ratio");
    ("obs.trace_dropped", "count");
    ("replans_per_hour", "1/h");
  ]

(* Set-up runs [setup_repeats] times before each pass, spreading its
   samples over the run; the median is reported. *)
let setup_repeats = 3
let trace_capacity = 1 lsl 21

(* Library spans map to layers by name; the benchmark's own [bench.*]
   spans carry their layer as category. [formulations.*] (model building
   and separation) counts as LP work. *)
let layer_of ~name ~cat =
  let has p = String.starts_with ~prefix:p name in
  if has "bench." then cat
  else if has "lp." || has "formulations." then "lp"
  else if has "sim." || has "soak." || has "recovery." then "sim"
  else if has "session." then "session"
  else if has "pool." then "exec"
  else "core"

(* Process high-water mark, from the kernel's accounting of this process. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                Some (float_of_int kb /. 1024.))
          | Some _ -> scan ()
        in
        scan ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

type result = {
  workload : string;
  attempted : int;
  failed : int;
  failures : string list;
  samples : (string * int) list;  (** sample counts behind the percentiles *)
  reference_s : float;  (** median {!Reference} time, raw seconds *)
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let correct r = r.failed = 0

(* A measured phase: passes over the deck, each after [setups] fresh
   set-ups and a compacted heap, while the next pass still fits in
   [budget] seconds (at least [min_passes]). Each unit's figures are the
   median of its repeats, so every figure is per pass. Wall time is the
   time spent inside planning calls, so the benchmark's own correctness
   checks stay out of it. Times are reference time (see {!Reference});
   set-up times are scaled by the reference timed right after them.
   Returns the set-up times and the number of passes too. *)
let measure w ~seed ~smoke pass ~min_passes ~budget ~setups:repeats =
  let setups = ref [] and start = Acc.clock () in
  let rec loop runs last =
    if List.length runs >= min_passes && Acc.clock () -. start +. last > budget then runs
    else begin
      let times = List.init repeats (fun _ -> snd (Acc.timed (fun () -> w.setup ~seed ~smoke))) in
      Gc.compact ();
      let acc = Acc.create () in
      let scale = Reference.nominal /. Acc.reference acc in
      setups := List.map (fun s -> s *. scale) times @ !setups;
      let (), dt = Acc.timed (fun () -> pass acc) in
      loop (acc :: runs) dt
    end
  in
  let runs = List.rev (loop [] 0.) in
  let acc = Acc.typical runs in
  (acc, Stats.sum (Acc.get acc "plan_ms") /. 1000., !setups, List.length runs)

let end_to_end_metrics acc ~setup_s ~wall =
  let ms key = Acc.get acc key in
  [
    ("setup_s", setup_s);
    ("wall_s", wall);
    ("peak_rss_mb", peak_rss_mb ());
    ("plan_p50_ms", Stats.median (ms "plan_ms"));
    ("epoch_p50_ms", Stats.median (ms "epoch_ms"));
    ("epoch_p95_ms", Stats.nearest_rank 0.95 (ms "epoch_ms"));
    ("period_over_lb", Stats.mean (ms "period_over_lb"));
    ("admitted_frac", Stats.ratio (Acc.total acc "admitted") (Acc.total acc "offered"));
    ("availability", Stats.mean (ms "availability"));
  ]

(* Counts and span times from the traced phase, reported per pass. *)
let per_layer_metrics w acc ~passes ~wall ~traced ~traced_wall ~events ~dropped ~delta ~lp =
  let per_pass x = x /. float_of_int passes in
  let counter name =
    match Metrics.find delta name with
    | Some (Metrics.Counter n) -> per_pass (float_of_int n)
    | _ -> 0.
  in
  let histo_sum name =
    match Metrics.find delta name with
    | Some (Metrics.Histogram h) -> per_pass h.Metrics.h_sum
    | _ -> 0.
  in
  let counters_with prefix =
    List.fold_left
      (fun s (name, v) ->
        match v with
        | Metrics.Counter n when String.starts_with ~prefix name -> s +. per_pass (float_of_int n)
        | _ -> s)
      0. delta
  in
  let names = (Trace_stats.of_events ~dropped events).Trace_stats.p_names in
  let span_sum select =
    per_pass (List.fold_left (fun s (n : Trace_stats.name_stat) -> s +. select n) 0. names)
  in
  let self_where p = span_sum (fun n -> if p n then n.Trace_stats.ns_self else 0.) in
  let layer_self l =
    self_where (fun n -> layer_of ~name:n.Trace_stats.ns_name ~cat:n.Trace_stats.ns_cat = l)
  in
  let named s n = n.Trace_stats.ns_name = s in
  let replay n = named "sim.replay" n || named "sim.replay_faulty" n in
  let lp_count n = per_pass (float_of_int n) in
  let solves = lp_count (lp.Lp_counters.float_solves + lp.Lp_counters.exact_solves) in
  let pivots = lp_count (lp.Lp_counters.pivots + lp.Lp_counters.exact_pivots) in
  let simplex_s = self_where (named "lp.solve") in
  let hits = counters_with "lp_cache.hits." and misses = counters_with "lp_cache.misses." in
  let replays = counter "sim.replays" +. counter "sim.faulty_replays" in
  let replay_s = span_sum (fun n -> if replay n then n.Trace_stats.ns_total else 0.) in
  let replans = counter "session.replans" and skipped = counter "session.replans_skipped" in
  let core_ms key = Stats.median (Acc.get acc key) in
  [
    ("lp.solves", solves);
    ("lp.pivots", pivots);
    ("lp.exact_solves", lp_count lp.Lp_counters.exact_solves);
    ("lp.warm_hit_ratio", Stats.ratio (lp_count lp.Lp_counters.warm_hits) solves);
    ("lp.cut_rounds", histo_sum "formulations.lb_cut_rounds");
    ("lp.simplex_s", simplex_s);
    ("lp.ns_per_pivot", Stats.ratio (simplex_s *. 1e9) pivots);
    ("lp.separation_s", self_where (fun n -> String.starts_with ~prefix:"formulations." n.Trace_stats.ns_name));
    ("lp.cache_hit_ratio", Stats.ratio hits (hits +. misses));
    ("lp.self_s", layer_self "lp");
    ("core.bounds_ms", core_ms "core.bounds_ms");
    ("core.mcph_ms", core_ms "core.mcph_ms");
    ("core.augmented_ms", core_ms "core.augmented_ms");
    ("core.reduced_ms", core_ms "core.reduced_ms");
    ("core.multisource_ms", core_ms "core.multisource_ms");
    ("core.schedule_ms", core_ms "core.schedule_ms");
    ("core.augmented_solves", Acc.total traced "core.augmented_solves");
    ("core.reduced_solves", Acc.total traced "core.reduced_solves");
    ("core.repair_plans", counter "repair.plans");
    ("core.repair_patched", counter "repair.patched");
    ("core.repair_fallback", counter "repair.fallback");
    ("core.mcph_runs", counter "mcph.runs");
    ("core.self_s", layer_self "core");
    ("sim.replays", replays);
    ("sim.replay_s", replay_s);
    ("sim.replay_ms_per_call", Stats.ratio (replay_s *. 1000.) replays);
    ("sim.self_s", layer_self "sim");
    ("session.replans", replans);
    ("session.replans_skipped", skipped);
    ("session.replan_ratio", Stats.ratio replans (replans +. skipped));
    ("session.preemptions", counter "session.preempted");
    ("session.self_s", layer_self "session");
    ("exec.tasks", counter "pool.tasks");
    ("exec.utilization",
      Stats.ratio (histo_sum "pool.task_seconds") (float_of_int w.jobs *. traced_wall));
    ("exec.self_s", layer_self "exec");
    ("obs.trace_overhead", Stats.ratio traced_wall wall -. 1.);
    ("obs.trace_dropped", float_of_int dropped);
    ("replans_per_hour", Stats.mean (Acc.get traced "replans_per_hour"));
  ]

(* Untraced runs spend [seconds] on at least three passes, so each unit
   has a median repeat. Traced runs split [seconds] between untraced and
   traced passes, at least one each. *)
let run w ~seed ~seconds ~trace ~smoke =
  let pass = w.setup ~seed ~smoke in
  let measure ~min_passes ~budget ~setups =
    if smoke then measure w ~seed ~smoke pass ~min_passes:1 ~budget:0. ~setups:(min setups 1)
    else measure w ~seed ~smoke pass ~min_passes ~budget ~setups
  in
  (* Set-up runs only in untraced runs, where [setup_s] is reported, so it
     never enters the per-layer counters. *)
  let metrics, accs =
    if not trace then
      let acc, wall, setups, _ = measure ~min_passes:3 ~budget:seconds ~setups:setup_repeats in
      (end_to_end_metrics acc ~setup_s:(Stats.median setups) ~wall, [ acc ])
    else begin
      let acc, wall, _, _ = measure ~min_passes:1 ~budget:(seconds /. 2.) ~setups:0 in
      let before = Metrics.snapshot () and lp_before = Lp_counters.snapshot () in
      Trace.enable ~capacity:trace_capacity ();
      let (traced, traced_wall, _, passes), events, dropped =
        Fun.protect ~finally:Trace.disable (fun () ->
            let r = measure ~min_passes:1 ~budget:(seconds /. 2.) ~setups:0 in
            (r, Trace.events (), Trace.dropped ()))
      in
      let delta = Metrics.delta ~before (Metrics.snapshot ()) in
      let lp = Lp_counters.since lp_before in
      ( per_layer_metrics w acc ~passes ~wall ~traced ~traced_wall ~events ~dropped ~delta ~lp,
        [ acc; traced ] )
    end
  in
  let unit_of name = List.assoc name (if trace then per_layer else end_to_end) in
  {
    workload = w.name;
    attempted = List.fold_left (fun n a -> n + a.Acc.attempted) 0 accs;
    failed = List.fold_left (fun n a -> n + a.Acc.failed) 0 accs;
    failures = List.concat_map (fun a -> List.rev a.Acc.failures) accs;
    samples =
      (let acc = List.hd accs in
       [ ("plan", List.length (Acc.get acc "plan_ms")); ("epoch", List.length (Acc.get acc "epoch_ms")) ]);
    metrics = List.map (fun (name, v) -> (name, v, unit_of name)) metrics;
    reference_s = Stats.median (List.concat_map (fun a -> a.Acc.references) accs);
  }

(* Output: a text block per workload, the machine-readable summary, and the
   one-line result the caller parses. *)

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_object fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* [qualify] prefixes each name with its workload, for multi-workload runs. *)
let metrics_json ~qualify rs =
  json_object
    (List.concat_map
       (fun r ->
         List.map
           (fun (name, v, u) ->
             ( (if qualify then r.workload ^ "." else "") ^ name,
               json_object [ ("value", json_float v); ("unit", json_string u) ] ))
           r.metrics)
       rs)

let failed_frac r = Stats.ratio (float_of_int r.failed) (float_of_int r.attempted)

let print_text r =
  Printf.printf
    "workload %s: %d units attempted, %d failed (failed_frac %s); samples %s; reference %.4f s\n"
    r.workload r.attempted r.failed (json_float (failed_frac r))
    (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) r.samples))
    r.reference_s;
  List.iter (fun (name, v, u) -> Printf.printf "  %-26s %18.6f %s\n" name v u) r.metrics;
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) r.failures

let write_summary path ~seed ~seconds ~trace rs =
  let run r =
    json_object
      [
        ("workload", json_string r.workload);
        ("correct", string_of_bool (correct r));
        ("attempted", string_of_int r.attempted);
        ("failed", string_of_int r.failed);
        ("failed_frac", json_float (failed_frac r));
        ("samples", json_object (List.map (fun (k, n) -> (k, string_of_int n)) r.samples));
        ("reference_s", json_float r.reference_s);
        ("failures", "[" ^ String.concat ", " (List.map json_string r.failures) ^ "]");
        ("metrics", metrics_json ~qualify:false [ r ]);
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        (json_object
           [
             ("seed", string_of_int seed);
             ("seconds", json_float seconds);
             ("trace", string_of_bool trace);
             ("runs", "[" ^ String.concat ", " (List.map run rs) ^ "]");
           ]);
      output_char oc '\n')

let result_line rs =
  json_object
    [
      ("correct", string_of_bool (List.for_all correct rs));
      ("attempted", string_of_int (List.fold_left (fun n r -> n + r.attempted) 0 rs));
      ("failed", string_of_int (List.fold_left (fun n r -> n + r.failed) 0 rs));
      ("metrics", metrics_json ~qualify:(List.length rs > 1) rs);
    ]
