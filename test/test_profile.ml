(* PR 5 analysis layer: span-tree reconstruction and self-time accounting
   (Trace_stats), folded flamegraph rendering (Folded), and the metrics
   regression gate (Regress). Trace events are built by hand with fake
   timestamps, so every expected number below is exact. *)

let span ?(cat = "t") ?(tid = 0) name ts dur =
  {
    Trace.ev_name = name;
    ev_cat = cat;
    ev_ts = ts;
    ev_dur = Some dur;
    ev_tid = tid;
    ev_args = [];
  }

let instant ?(tid = 0) name ts =
  { Trace.ev_name = name; ev_cat = "t"; ev_ts = ts; ev_dur = None; ev_tid = tid; ev_args = [] }

(* Two domains:
     domain 0:  A [0,10] with children B [1,4] (child D [2,3]) and C [5,9];
                a second root E [12,14]
     domain 1:  F [0,8]
   listed in completion (innermost-first) order, exactly as the live ring
   records spans. Self times: A=3 B=2 C=4 D=1 E=2 F=8; wall = 14. *)
let sample_events =
  [
    span "D" 2.0 1.0;
    span "B" 1.0 3.0;
    span ~cat:"c" "C" 5.0 4.0;
    span "A" 0.0 10.0;
    span "E" 12.0 2.0;
    span ~tid:1 "F" 0.0 8.0;
    instant "mark" 6.0;
  ]

let node_name (n : Trace_stats.node) = n.Trace_stats.n_event.Trace.ev_name

let test_forest_shape () =
  match Trace_stats.forests sample_events with
  | [ (0, [ a; e ]); (1, [ f ]) ] ->
    Alcotest.(check (list string)) "domain 0 roots in start order" [ "A"; "E" ]
      [ node_name a; node_name e ];
    Alcotest.(check (list string)) "A's children in start order" [ "B"; "C" ]
      (List.map node_name a.Trace_stats.n_children);
    (match a.Trace_stats.n_children with
    | [ b; c ] ->
      Alcotest.(check (list string)) "B's child" [ "D" ]
        (List.map node_name b.Trace_stats.n_children);
      Alcotest.(check (float 1e-9)) "B self" 2.0 b.Trace_stats.n_self;
      Alcotest.(check (float 1e-9)) "C self" 4.0 c.Trace_stats.n_self
    | _ -> Alcotest.fail "A should have exactly two children");
    Alcotest.(check (float 1e-9)) "A self = dur - direct children" 3.0 a.Trace_stats.n_self;
    Alcotest.(check (float 1e-9)) "E self" 2.0 e.Trace_stats.n_self;
    Alcotest.(check (float 1e-9)) "F self" 8.0 f.Trace_stats.n_self
  | fs ->
    Alcotest.failf "expected domains [0;1] with [2;1] roots, got %d domains"
      (List.length fs)

let test_shared_endpoint_siblings () =
  (* Q starts exactly when P stops: sharing an endpoint makes siblings,
     not nesting, and the parent's self time is exactly zero. *)
  let evs = [ span "P" 0.0 2.0; span "Q" 2.0 2.0; span "R" 0.0 4.0 ] in
  match Trace_stats.forests evs with
  | [ (0, [ r ]) ] ->
    Alcotest.(check (list string)) "P and Q are siblings under R" [ "P"; "Q" ]
      (List.map node_name r.Trace_stats.n_children);
    Alcotest.(check (float 0.0)) "R self is zero" 0.0 r.Trace_stats.n_self
  | _ -> Alcotest.fail "expected a single root on domain 0"

let find_name (p : Trace_stats.profile) name =
  match
    List.find_opt (fun (s : Trace_stats.name_stat) -> s.Trace_stats.ns_name = name)
      p.Trace_stats.p_names
  with
  | Some s -> s
  | None -> Alcotest.failf "name %s missing from profile" name

let test_profile_numbers () =
  let p = Trace_stats.of_events ~dropped:5 sample_events in
  Alcotest.(check (float 1e-9)) "wall clock" 14.0 p.Trace_stats.p_wall;
  Alcotest.(check int) "span count" 6 p.Trace_stats.p_spans;
  Alcotest.(check int) "instant count" 1 p.Trace_stats.p_instants;
  Alcotest.(check int) "dropped threaded through" 5 p.Trace_stats.p_dropped;
  Alcotest.(check (float 1e-9)) "self times partition the busy time" 20.0
    (Trace_stats.total_self p);
  let a = find_name p "A" in
  Alcotest.(check (float 1e-9)) "A self" 3.0 a.Trace_stats.ns_self;
  Alcotest.(check (float 1e-9)) "A total" 10.0 a.Trace_stats.ns_total;
  Alcotest.(check int) "A count" 1 a.Trace_stats.ns_count;
  Alcotest.(check string) "C keeps its category" "c" (find_name p "C").Trace_stats.ns_cat;
  (* names sorted by self time descending: F (8) first *)
  (match p.Trace_stats.p_names with
  | first :: _ -> Alcotest.(check string) "largest self time first" "F" first.Trace_stats.ns_name
  | [] -> Alcotest.fail "no name stats");
  (match p.Trace_stats.p_domains with
  | [ d0; d1 ] ->
    Alcotest.(check int) "domain 0 id" 0 d0.Trace_stats.ds_tid;
    Alcotest.(check int) "domain 0 spans (all depths)" 5 d0.Trace_stats.ds_spans;
    Alcotest.(check (float 1e-9)) "domain 0 busy = root durations" 12.0 d0.Trace_stats.ds_busy;
    Alcotest.(check (float 1e-9)) "domain 0 busy fraction" (12.0 /. 14.0)
      d0.Trace_stats.ds_busy_fraction;
    Alcotest.(check (float 1e-9)) "domain 0 max gap (between A and E)" 2.0
      d0.Trace_stats.ds_max_gap;
    Alcotest.(check (float 1e-9)) "domain 1 busy" 8.0 d1.Trace_stats.ds_busy;
    Alcotest.(check (float 1e-9)) "domain 1 trailing idle" 6.0 d1.Trace_stats.ds_max_gap
  | ds -> Alcotest.failf "expected 2 domains, got %d" (List.length ds));
  Alcotest.(check (list string)) "critical path: longest root, then longest child"
    [ "A"; "C" ]
    (List.map (fun (s : Trace_stats.step) -> s.Trace_stats.st_name) p.Trace_stats.p_critical)

let test_profile_empty_and_renderers () =
  let empty = Trace_stats.of_events [] in
  Alcotest.(check (float 0.0)) "empty wall" 0.0 empty.Trace_stats.p_wall;
  Alcotest.(check bool) "empty to_text renders" true
    (String.length (Trace_stats.to_text empty) > 0);
  let p = Trace_stats.of_events ~dropped:5 sample_events in
  let text = Trace_stats.to_text ~top:2 p in
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  Alcotest.(check bool) "dropped events surfaced in text" true
    (contains text "5 events dropped");
  Alcotest.(check bool) "top cap mentions the hidden names" true (contains text "more span names");
  (* JSON must round-trip through the JSON reader and carry the headline
     numbers. *)
  match Json.parse (Json.to_string (Trace_stats.to_json p)) with
  | Ok (Json.JObj fields) ->
    Alcotest.(check bool) "wall_seconds in JSON" true
      (List.assoc_opt "wall_seconds" fields = Some (Json.JNum 14.0));
    (match List.assoc_opt "names" fields with
    | Some (Json.JList names) ->
      Alcotest.(check int) "one JSON entry per span name" 6 (List.length names)
    | _ -> Alcotest.fail "names array missing")
  | Ok _ -> Alcotest.fail "profile JSON is not an object"
  | Error e -> Alcotest.failf "profile JSON does not parse: %s" e

let test_folded_exact () =
  (* 'a b' sanitizes to a_b, 'c;d' to c:d; both stacks carry 1s of self
     time = 1000000 us; lines come out sorted. *)
  let evs = [ span ~tid:3 "c;d" 0.5 1.0; span ~tid:3 "a b" 0.0 2.0 ] in
  Alcotest.(check string) "folded output exact"
    "domain3;a_b 1000000\ndomain3;a_b;c:d 1000000\n" (Folded.of_events evs);
  (* children tiling the parent exactly leave it zero self time — its
     stack line is dropped, the leaves remain *)
  let evs2 = [ span "k1" 0.0 1.0; span "k2" 1.0 1.0; span "z" 0.0 2.0 ] in
  Alcotest.(check string) "zero-self stacks dropped"
    "domain0;z;k1 1000000\ndomain0;z;k2 1000000\n" (Folded.of_events evs2)

(* --- regression gate -------------------------------------------------- *)

let base_snapshot =
  [
    ("lp.pivots.float", 100.0);
    ("lp.solves.float", 10.0);
    ("lp_cache.hits.x", 75.0);
    ("lp_cache.misses.x", 25.0);
    ("uncovered.metric", 5.0);
  ]

let replace name v snap = (name, v) :: List.remove_assoc name snap

let test_regress_pass_and_fail () =
  let rules = Regress.default_rules () in
  let r = Regress.compare_snapshots ~rules ~before:base_snapshot base_snapshot in
  Alcotest.(check bool) "identical snapshots pass" true (Regress.passed r);
  (* raw cache counters are uncovered too: only their derived rate is gated *)
  Alcotest.(check int) "uncovered metrics ignored" 3 r.Regress.rep_unmatched;
  (* a 2x lp.pivots.float blowup fails the gate *)
  let worse = replace "lp.pivots.float" 200.0 base_snapshot in
  let r = Regress.compare_snapshots ~rules ~before:base_snapshot worse in
  Alcotest.(check bool) "2x pivots fails" false (Regress.passed r);
  let f =
    List.find
      (fun (f : Regress.finding) -> f.Regress.f_name = "lp.pivots.float")
      r.Regress.rep_findings
  in
  Alcotest.(check bool) "pivot finding regressed" true
    (f.Regress.f_status = Regress.Regressed);
  Alcotest.(check (float 1e-9)) "relative change is +100%" 1.0 f.Regress.f_change;
  (* improvements in the gated direction always pass *)
  let better = replace "lp.pivots.float" 50.0 base_snapshot in
  Alcotest.(check bool) "halving pivots passes" true
    (Regress.passed (Regress.compare_snapshots ~rules ~before:base_snapshot better))

let test_regress_hit_rate_missing_and_new () =
  let rules = Regress.default_rules () in
  (* hit rate 0.75 -> 0.40 is a -47% fall: Not_below at 25% fails, even
     though no raw counter grew *)
  let fewer_hits =
    replace "lp_cache.hits.x" 40.0 (replace "lp_cache.misses.x" 60.0 base_snapshot)
  in
  let r = Regress.compare_snapshots ~rules ~before:base_snapshot fewer_hits in
  Alcotest.(check bool) "fallen hit rate fails" false (Regress.passed r);
  let f =
    List.find
      (fun (f : Regress.finding) -> f.Regress.f_name = "derived.lp_cache.hit_rate")
      r.Regress.rep_findings
  in
  Alcotest.(check bool) "derived finding regressed" true
    (f.Regress.f_status = Regress.Regressed);
  (* a vanished gated metric is a failure, not a silent skip *)
  let vanished = List.remove_assoc "lp.solves.float" base_snapshot in
  let r = Regress.compare_snapshots ~rules ~before:base_snapshot vanished in
  Alcotest.(check bool) "missing metric fails" false (Regress.passed r);
  let f =
    List.find
      (fun (f : Regress.finding) -> f.Regress.f_name = "lp.solves.float")
      r.Regress.rep_findings
  in
  Alcotest.(check bool) "status is Missing" true (f.Regress.f_status = Regress.Missing);
  (* a gated metric present only in the current run is informational *)
  let extra = ("lp.solves.exact", 5.0) :: base_snapshot in
  let r = Regress.compare_snapshots ~rules ~before:base_snapshot extra in
  Alcotest.(check bool) "new metric does not fail" true (Regress.passed r);
  Alcotest.(check (list string)) "new metric reported" [ "lp.solves.exact" ]
    r.Regress.rep_new

let test_regress_time_tolerance () =
  (* wall-time sums get the generous tolerance: default max(1.0, 4*tol)
     = 100% with the default 25% counter tolerance *)
  let rules = Regress.default_rules () in
  let before = [ ("pool.task_seconds.sum", 1.0) ] in
  let ok = Regress.compare_snapshots ~rules ~before [ ("pool.task_seconds.sum", 1.9) ] in
  Alcotest.(check bool) "+90% wall time tolerated" true (Regress.passed ok);
  let bad = Regress.compare_snapshots ~rules ~before [ ("pool.task_seconds.sum", 2.5) ] in
  Alcotest.(check bool) "+150% wall time fails" false (Regress.passed bad);
  (* counters still use the tight tolerance under the same rule set *)
  let bad =
    Regress.compare_snapshots ~rules ~before:[ ("lp.solves.float", 10.0) ]
      [ ("lp.solves.float", 19.0) ]
  in
  Alcotest.(check bool) "+90% solves fails" false (Regress.passed bad)

let write_file content =
  let path = Filename.temp_file "test_profile" ".json" in
  Out_channel.with_open_text path (fun oc -> output_string oc content);
  path

let test_regress_load () =
  (* bare Metrics.to_json shape: histogram objects flatten to dotted names *)
  let bare =
    write_file
      {|{ "lp.pivots.float": 10, "h": {"count": 2, "sum": 1.5}, "note": "skip me" }|}
  in
  (match Regress.load bare with
  | Error e -> Alcotest.failf "bare shape failed to load: %s" e
  | Ok flat ->
    Alcotest.(check (option (float 0.0))) "counter" (Some 10.0)
      (List.assoc_opt "lp.pivots.float" flat);
    Alcotest.(check (option (float 0.0))) "histogram count" (Some 2.0)
      (List.assoc_opt "h.count" flat);
    Alcotest.(check (option (float 0.0))) "histogram sum" (Some 1.5)
      (List.assoc_opt "h.sum" flat);
    Alcotest.(check (option (float 0.0))) "non-numeric skipped" None
      (List.assoc_opt "note" flat));
  Sys.remove bare;
  (* mcast --profile shape: only the "metrics" subtree is the registry *)
  let wrapped =
    write_file
      {|{ "workload": "robust", "metrics": { "lp.pivots.float": 7 }, "profile": { "wall_seconds": 1.25 } }|}
  in
  (match Regress.load wrapped with
  | Error e -> Alcotest.failf "wrapped shape failed to load: %s" e
  | Ok flat ->
    Alcotest.(check (option (float 0.0))) "metrics subtree used" (Some 7.0)
      (List.assoc_opt "lp.pivots.float" flat);
    Alcotest.(check (option (float 0.0))) "profile subtree not gated" None
      (List.assoc_opt "profile.wall_seconds" flat));
  Sys.remove wrapped;
  let bad = write_file "{ not json" in
  (match Regress.load bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed JSON should be an error");
  Sys.remove bad

let test_flatten_snapshot () =
  let h = Metrics.histogram "test_profile.flat_histo" in
  Metrics.observe h 2.0;
  Metrics.observe h 6.0;
  let flat = Regress.flatten_snapshot (Metrics.snapshot ()) in
  Alcotest.(check (option (float 0.0))) "histogram count flattened" (Some 2.0)
    (List.assoc_opt "test_profile.flat_histo.count" flat);
  Alcotest.(check (option (float 0.0))) "histogram sum flattened" (Some 8.0)
    (List.assoc_opt "test_profile.flat_histo.sum" flat);
  Alcotest.(check (option (float 0.0))) "histogram max flattened" (Some 6.0)
    (List.assoc_opt "test_profile.flat_histo.max" flat)

(* End to end on a real (fake-clocked) trace: record through the live
   Trace API, profile it, and confirm self times still partition the
   wall-clock exactly. *)
let test_live_roundtrip () =
  let t = ref 0.0 in
  let clock () =
    t := !t +. 0.5;
    !t
  in
  Trace.enable ~clock ();
  Fun.protect ~finally:Trace.disable @@ fun () ->
  Trace.with_span "outer" (fun () ->
      Trace.with_span "inner" (fun () -> ()) |> ignore;
      Trace.with_span "inner" (fun () -> ()) |> ignore);
  let p = Trace_stats.compute () in
  Alcotest.(check int) "three spans" 3 p.Trace_stats.p_spans;
  Alcotest.(check (float 1e-9)) "self times sum to wall" p.Trace_stats.p_wall
    (Trace_stats.total_self p);
  let inner = find_name p "inner" in
  Alcotest.(check int) "both inner spans aggregated" 2 inner.Trace_stats.ns_count

let suite =
  [
    Alcotest.test_case "forest reconstruction" `Quick test_forest_shape;
    Alcotest.test_case "shared endpoints make siblings" `Quick test_shared_endpoint_siblings;
    Alcotest.test_case "profile numbers" `Quick test_profile_numbers;
    Alcotest.test_case "empty profile and renderers" `Quick test_profile_empty_and_renderers;
    Alcotest.test_case "folded output exact" `Quick test_folded_exact;
    Alcotest.test_case "gate: pass and 2x-pivot fail" `Quick test_regress_pass_and_fail;
    Alcotest.test_case "gate: hit rate, missing, new" `Quick
      test_regress_hit_rate_missing_and_new;
    Alcotest.test_case "gate: time tolerance" `Quick test_regress_time_tolerance;
    Alcotest.test_case "gate: snapshot loading" `Quick test_regress_load;
    Alcotest.test_case "gate: registry flattening" `Quick test_flatten_snapshot;
    Alcotest.test_case "live trace round-trip" `Quick test_live_roundtrip;
  ]
