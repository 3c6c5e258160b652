(* Tests for the PR 10 observability layer: time-series ring decay and
   rollup exactness, windowed aggregation, SLO spec parsing, burn-rate
   arithmetic, multi-window breach gating with hysteresis recovery (all
   on hand-fed simulated clocks), incident-chain assembly, and the
   histogram percentile fields the exporters gained. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---------------- Timeseries ---------------- *)

let test_ts_full_resolution () =
  (* Below capacity every sample keeps its own bucket: no decay, no
     merging, exact min/max/last per bucket. *)
  let t = Timeseries.create ~capacity:8 () in
  for i = 1 to 8 do
    Timeseries.sample t "s" ~time:(float_of_int i) (float_of_int (10 * i))
  done;
  let bs = Timeseries.buckets t "s" in
  Alcotest.(check int) "one bucket per sample" 8 (List.length bs);
  Alcotest.(check int) "no compactions yet" 0 (Timeseries.compactions t "s");
  List.iteri
    (fun i (b : Timeseries.bucket) ->
      Alcotest.(check int) "singleton bucket" 1 b.Timeseries.b_count;
      Alcotest.(check (float 0.0)) "bucket time" (float_of_int (i + 1)) b.Timeseries.b_t0;
      Alcotest.(check (float 0.0)) "bucket value" (float_of_int (10 * (i + 1)))
        b.Timeseries.b_last)
    bs

let test_ts_decay_no_data_loss () =
  (* 100 samples through a capacity-8 ring: buckets merge pairwise but
     the rollup stays exact, and the bucket sums still account for every
     sample — decay trades resolution, never data. *)
  let t = Timeseries.create ~capacity:8 () in
  let sum = ref 0.0 in
  for i = 1 to 100 do
    let v = float_of_int i in
    sum := !sum +. v;
    Timeseries.sample t "s" ~time:v v
  done;
  let r = Option.get (Timeseries.rollup t "s") in
  Alcotest.(check int) "rollup counts every sample" 100 r.Timeseries.r_count;
  Alcotest.(check (float 1e-9)) "rollup sum exact" !sum r.Timeseries.r_sum;
  Alcotest.(check (float 0.0)) "rollup min" 1.0 r.Timeseries.r_min;
  Alcotest.(check (float 0.0)) "rollup max" 100.0 r.Timeseries.r_max;
  Alcotest.(check (float 0.0)) "rollup last" 100.0 r.Timeseries.r_last;
  Alcotest.(check (float 1e-9)) "rollup mean" (!sum /. 100.0) (Timeseries.mean r);
  let bs = Timeseries.buckets t "s" in
  Alcotest.(check bool) "ring stayed bounded" true (List.length bs <= 8);
  Alcotest.(check bool) "series was compacted" true (Timeseries.compactions t "s" > 0);
  let bucket_count = List.fold_left (fun a b -> a + b.Timeseries.b_count) 0 bs in
  let bucket_sum = List.fold_left (fun a b -> a +. b.Timeseries.b_sum) 0.0 bs in
  Alcotest.(check int) "buckets account for every sample" 100 bucket_count;
  Alcotest.(check (float 1e-9)) "buckets account for the full sum" !sum bucket_sum;
  (* buckets stay time-ordered after merging *)
  ignore
    (List.fold_left
       (fun prev (b : Timeseries.bucket) ->
         Alcotest.(check bool) "buckets time-ordered" true (b.Timeseries.b_t0 >= prev);
         b.Timeseries.b_t1)
       neg_infinity bs)

let test_ts_window () =
  (* At full resolution a window aggregates exactly the samples inside
     it. *)
  let t = Timeseries.create ~capacity:64 () in
  for i = 0 to 9 do
    Timeseries.sample t "s" ~time:(float_of_int i) (float_of_int i)
  done;
  (match Timeseries.window t "s" ~t0:5.0 ~t1:9.0 with
  | None -> Alcotest.fail "window found nothing"
  | Some w ->
    Alcotest.(check int) "window count" 5 w.Timeseries.r_count;
    Alcotest.(check (float 1e-9)) "window sum" 35.0 w.Timeseries.r_sum;
    Alcotest.(check (float 0.0)) "window min" 5.0 w.Timeseries.r_min;
    Alcotest.(check (float 0.0)) "window max" 9.0 w.Timeseries.r_max);
  Alcotest.(check bool) "empty window is None" true
    (Timeseries.window t "s" ~t0:100.0 ~t1:200.0 = None);
  Alcotest.(check bool) "unknown series is None" true
    (Timeseries.window t "nope" ~t0:0.0 ~t1:9.0 = None)

let test_ts_exporters () =
  let t = Timeseries.create () in
  Timeseries.sample t "soak.availability" ~time:1.0 0.5;
  Timeseries.sample t "soak.availability" ~time:2.0 1.0;
  let js = Json.to_string (Timeseries.to_json t) in
  Alcotest.(check bool) "json names the series" true (contains js "soak.availability");
  Alcotest.(check bool) "json has points" true (contains js "\"points\"");
  let om = Timeseries.to_openmetrics t in
  Alcotest.(check bool) "openmetrics TYPE header" true
    (contains om "# TYPE soak_availability gauge");
  Alcotest.(check bool) "openmetrics EOF terminator" true (contains om "# EOF");
  match Timeseries.counter_tracks t with
  | [ (name, points) ] ->
    Alcotest.(check string) "track name" "soak.availability" name;
    Alcotest.(check int) "track points" 2 (List.length points)
  | l -> Alcotest.failf "expected one counter track, got %d" (List.length l)

let test_ts_unsampled_objective () =
  (* A misspelled series name is never sampled, so its objective is never
     evaluated; the sink must report it rather than let the run pass. *)
  let objective spec = match Slo.parse spec with Ok o -> o | Error e -> Alcotest.fail e in
  let watched = objective "soak.availability>=0.995"
  and misspelled = objective "soak.availabilty>=0.995" in
  let t = Timeseries.create ~slo:[ watched; misspelled ] () in
  Alcotest.(check int) "before any sample both are unsampled" 2
    (List.length (Timeseries.unsampled t));
  Timeseries.sample t "soak.availability" ~time:1.0 1.0;
  Timeseries.sample t "soak.tokens" ~time:1.0 4.0;
  Alcotest.(check (list string)) "only the misspelled series is unsampled"
    [ "soak.availabilty" ]
    (List.map (fun o -> o.Slo.o_series) (Timeseries.unsampled t))

(* ---------------- Slo ---------------- *)

let test_slo_parse () =
  (match Slo.parse "soak.availability>=0.99,fast=20,slow=100,fastburn=3,slowburn=1.5,budget=0.01,hold=25"
   with
  | Error e -> Alcotest.fail e
  | Ok o ->
    Alcotest.(check string) "series" "soak.availability" o.Slo.o_series;
    Alcotest.(check bool) "direction" true (o.Slo.o_dir = Slo.At_least);
    Alcotest.(check (float 0.0)) "threshold" 0.99 o.Slo.o_threshold;
    Alcotest.(check (float 0.0)) "fast window" 20.0 o.Slo.o_fast_window;
    Alcotest.(check (float 0.0)) "slow window" 100.0 o.Slo.o_slow_window;
    Alcotest.(check (float 0.0)) "fast burn" 3.0 o.Slo.o_fast_burn;
    Alcotest.(check (float 0.0)) "slow burn" 1.5 o.Slo.o_slow_burn;
    Alcotest.(check (float 0.0)) "budget" 0.01 o.Slo.o_budget;
    Alcotest.(check (float 0.0)) "hold down" 25.0 o.Slo.o_hold_down;
    Alcotest.(check string) "spec round-trip" "soak.availability>=0.99" (Slo.spec o));
  (match Slo.parse "recovery.replan_seconds<=2.5" with
  | Error e -> Alcotest.fail e
  | Ok o -> Alcotest.(check bool) "at-most direction" true (o.Slo.o_dir = Slo.At_most));
  List.iter
    (fun bad ->
      match Slo.parse bad with
      | Ok _ -> Alcotest.failf "spec %S should not parse" bad
      | Error _ -> ())
    [
      "nonsense";
      "series>=abc";
      ">=0.5";
      "s>=0.5,bogus";
      "s>=0.5,frob=1";
      (* a NaN threshold never breaches and an infinite one always does *)
      "horizon.throughput>=nan";
      "s<=-inf";
      "s>=0.5,fast=nan";
      "s>=0.5,budget=inf";
    ]

let test_slo_default_budget () =
  (* "availability >= 0.99" grants the 1% the threshold leaves over. *)
  let o = Slo.objective ~series:"s" Slo.At_least 0.99 in
  Alcotest.(check (float 1e-12)) "budget is 1 - threshold" 0.01 o.Slo.o_budget;
  let o = Slo.objective ~series:"s" Slo.At_least 0.2 in
  Alcotest.(check (float 0.0)) "budget clamped to 0.5" 0.5 o.Slo.o_budget;
  let o = Slo.objective ~series:"s" Slo.At_most 2.5 in
  Alcotest.(check (float 0.0)) "latency objectives default to 5%" 0.05 o.Slo.o_budget

let test_slo_burn_math () =
  (* 2 bad of 4 samples against a 0.5 budget is exactly burn 1.0 on both
     windows. *)
  let o =
    Slo.objective ~budget:0.5 ~fast_window:10.0 ~slow_window:10.0 ~fast_burn:10.0
      ~slow_burn:10.0 ~series:"s" Slo.At_least 0.5
  in
  let en = Slo.engine [ o ] in
  List.iteri
    (fun i v -> ignore (Slo.observe en ~time:(float_of_int (i + 1)) "s" v))
    [ 1.0; 0.0; 1.0; 0.0 ];
  (match Slo.burn en o.Slo.o_name with
  | None -> Alcotest.fail "no burn state"
  | Some (fb, sb) ->
    Alcotest.(check (float 1e-12)) "fast burn" 1.0 fb;
    Alcotest.(check (float 1e-12)) "slow burn" 1.0 sb);
  Alcotest.(check bool) "high triggers keep it out of breach" false
    (Slo.in_breach en o.Slo.o_name);
  (* samples for other series are ignored *)
  Alcotest.(check int) "unwatched series emits nothing" 0
    (List.length (Slo.observe en ~time:5.0 "other" 0.0))

let test_slo_multi_window_gate () =
  (* A fast-window spike alone must not breach: the slow window still
     remembers the good history. Only sustained badness trips both. *)
  let o =
    Slo.objective ~budget:1.0 ~fast_window:1.5 ~slow_window:20.0 ~fast_burn:0.9
      ~slow_burn:0.9 ~hold_down:5.0 ~series:"s" Slo.At_least 0.5
  in
  let en = Slo.engine [ o ] in
  for i = 1 to 10 do
    ignore (Slo.observe en ~time:(float_of_int i) "s" 1.0)
  done;
  ignore (Slo.observe en ~time:11.0 "s" 0.0);
  let evs = Slo.observe en ~time:12.0 "s" 0.0 in
  Alcotest.(check int) "fast spike alone does not breach" 0 (List.length evs);
  Alcotest.(check bool) "still out of breach" false (Slo.in_breach en o.Slo.o_name);
  (* keep failing until the slow window burns too *)
  let breached = ref false in
  for i = 13 to 40 do
    if not !breached then
      match Slo.observe en ~time:(float_of_int i) "s" 0.0 with
      | [] -> ()
      | [ e ] ->
        Alcotest.(check bool) "breach event" true (e.Slo.e_kind = `Breach);
        breached := true
      | _ -> Alcotest.fail "one event per transition"
  done;
  Alcotest.(check bool) "sustained badness breaches" true !breached;
  Alcotest.(check bool) "engine reports the breach" true (Slo.in_breach en o.Slo.o_name);
  Alcotest.(check bool) "breach epochs accumulated" true (Slo.breach_epochs en > 0)

let test_slo_hysteresis () =
  (* Recovery waits for hold_down units of non-burning samples — a
     single good sample after a breach is not a recovery. *)
  let o =
    Slo.objective ~budget:1.0 ~fast_window:2.0 ~slow_window:4.0 ~fast_burn:0.9
      ~slow_burn:0.4 ~hold_down:5.0 ~series:"s" Slo.At_least 0.5
  in
  let en = Slo.engine [ o ] in
  let feed t v = Slo.observe en ~time:t "s" v in
  (match feed 1.0 0.0 with
  | [ e ] -> Alcotest.(check bool) "immediate breach" true (e.Slo.e_kind = `Breach)
  | _ -> Alcotest.fail "expected a breach on the first bad sample");
  List.iter (fun t -> ignore (feed t 0.0)) [ 2.0; 3.0; 4.0 ];
  (* good samples from t=5: hold_down anchors at the first non-burning
     sample, so recovery can fire only at t >= 10 *)
  List.iter
    (fun t ->
      match feed t 1.0 with
      | [] -> ()
      | _ -> Alcotest.failf "recovery before hold_down elapsed (t=%g)" t)
    [ 5.0; 6.0; 7.0; 8.0; 9.0 ];
  (match feed 10.0 1.0 with
  | [ e ] ->
    Alcotest.(check bool) "recovery event" true (e.Slo.e_kind = `Recovery);
    Alcotest.(check (float 0.0)) "recovery time" 10.0 e.Slo.e_at
  | _ -> Alcotest.fail "expected recovery once hold_down elapsed");
  Alcotest.(check bool) "back out of breach" false (Slo.in_breach en o.Slo.o_name);
  (* event log kept the pair in order *)
  match Slo.events en with
  | [ b; r ] ->
    Alcotest.(check bool) "breach first" true (b.Slo.e_kind = `Breach);
    Alcotest.(check bool) "recovery second" true (r.Slo.e_kind = `Recovery)
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l)

(* ---------------- Incident ---------------- *)

let test_incident_chain () =
  (* One breach/recovery pair plus a fault just before the breach and a
     repair during it must assemble into a single causally-ordered
     incident. *)
  let faults = [ Fault.Kill_edge { src = 3; dst = 7; at = Rat.of_int 150 } ] in
  let repairs = [ (155.0, "recovery episode: recovered") ] in
  let events =
    [
      {
        Slo.e_kind = `Breach;
        e_at = 152.0;
        e_objective = "soak.availability>=0.99";
        e_fast_burn = 3.0;
        e_slow_burn = 1.2;
      };
      {
        Slo.e_kind = `Recovery;
        e_at = 190.0;
        e_objective = "soak.availability>=0.99";
        e_fast_burn = 0.0;
        e_slow_burn = 0.4;
      };
    ]
  in
  match Incident.build ~lookback:25.0 ~faults ~repairs events with
  | [ inc ] ->
    Alcotest.(check string) "objective" "soak.availability>=0.99" inc.Incident.i_objective;
    Alcotest.(check (float 0.0)) "starts at the breach" 152.0 inc.Incident.i_start;
    Alcotest.(check bool) "closed by the recovery" true
      (inc.Incident.i_end = Some 190.0);
    let kinds =
      List.map
        (function
          | Incident.E_fault _ -> "fault"
          | Incident.E_breach _ -> "breach"
          | Incident.E_repair _ -> "repair"
          | Incident.E_recovery _ -> "recovery")
        inc.Incident.i_entries
    in
    Alcotest.(check (list string)) "causal chain order"
      [ "fault"; "breach"; "repair"; "recovery" ] kinds;
    ignore
      (List.fold_left
         (fun prev e ->
           let t = Incident.entry_time e in
           Alcotest.(check bool) "entries time-ascending" true (t >= prev);
           t)
         neg_infinity inc.Incident.i_entries);
    let text = Incident.to_text [ inc ] in
    Alcotest.(check bool) "text has the chain line" true (contains text "chain:");
    Alcotest.(check bool) "json renders" true
      (contains (Json.to_string (Incident.to_json [ inc ])) "\"breach\"")
  | l -> Alcotest.failf "expected 1 incident, got %d" (List.length l)

let test_incident_unrecovered_and_unrelated () =
  (* A breach with no recovery stays open; faults outside the lookback
     are not attributed. *)
  let faults =
    [
      Fault.Kill_edge { src = 1; dst = 2; at = Rat.of_int 10 };
      Fault.Kill_node { node = 4; at = Rat.of_int 149 };
    ]
  in
  let events =
    [
      {
        Slo.e_kind = `Breach;
        e_at = 152.0;
        e_objective = "o";
        e_fast_burn = 2.0;
        e_slow_burn = 1.0;
      };
    ]
  in
  match Incident.build ~lookback:25.0 ~faults events with
  | [ inc ] ->
    Alcotest.(check bool) "never recovered" true (inc.Incident.i_end = None);
    let n_faults =
      List.length
        (List.filter (function Incident.E_fault _ -> true | _ -> false)
           inc.Incident.i_entries)
    in
    Alcotest.(check int) "only the in-lookback fault attributed" 1 n_faults
  | l -> Alcotest.failf "expected 1 incident, got %d" (List.length l)

(* ---------------- Metrics percentiles ---------------- *)

let test_histo_percentiles () =
  let h = Metrics.histogram "test_slo.latency" in
  for i = 1 to 100 do
    Metrics.observe h (float_of_int i)
  done;
  match Metrics.find (Metrics.snapshot ()) "test_slo.latency" with
  | Some (Metrics.Histogram hist) ->
    let p50 = Metrics.histo_percentile hist 0.5
    and p90 = Metrics.histo_percentile hist 0.9
    and p99 = Metrics.histo_percentile hist 0.99 in
    Alcotest.(check bool) "percentiles are monotone" true (p50 <= p90 && p90 <= p99);
    Alcotest.(check bool) "percentiles within range" true (p50 >= 1.0 && p99 <= 100.0);
    (* log-scale buckets are coarse; the median of 1..100 must still land
       in the right decade *)
    Alcotest.(check bool) "p50 roughly central" true (p50 >= 20.0 && p50 <= 80.0);
    let js = Json.to_string (Metrics.to_json (Metrics.snapshot ())) in
    Alcotest.(check bool) "json exports p50" true (contains js "\"p50\"");
    Alcotest.(check bool) "json exports p99" true (contains js "\"p99\"")
  | _ -> Alcotest.fail "histogram missing from snapshot"

let suite =
  [
    Alcotest.test_case "timeseries: full resolution below capacity" `Quick
      test_ts_full_resolution;
    Alcotest.test_case "timeseries: ring decay loses no data" `Quick
      test_ts_decay_no_data_loss;
    Alcotest.test_case "timeseries: windowed aggregation" `Quick test_ts_window;
    Alcotest.test_case "timeseries: exporters" `Quick test_ts_exporters;
    Alcotest.test_case "timeseries: objectives over unsampled series" `Quick
      test_ts_unsampled_objective;
    Alcotest.test_case "slo: spec parsing" `Quick test_slo_parse;
    Alcotest.test_case "slo: default budgets" `Quick test_slo_default_budget;
    Alcotest.test_case "slo: burn arithmetic" `Quick test_slo_burn_math;
    Alcotest.test_case "slo: multi-window gate" `Quick test_slo_multi_window_gate;
    Alcotest.test_case "slo: recovery hysteresis" `Quick test_slo_hysteresis;
    Alcotest.test_case "incident: fault-breach-repair-recovery chain" `Quick
      test_incident_chain;
    Alcotest.test_case "incident: open incidents and lookback" `Quick
      test_incident_unrecovered_and_unrelated;
    Alcotest.test_case "metrics: histogram percentiles" `Quick test_histo_percentiles;
  ]
