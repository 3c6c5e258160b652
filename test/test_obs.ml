(* Observability layer (PR 4): span recording, Chrome-trace export,
   metrics registry — including the concurrency guarantees the planner
   relies on (domain-safe updates, multi-domain span attribution). *)

(* Deterministic clock: each read advances by 1ms, so span k has
   ts = (2k+1) ms-ish offsets and every duration is a known multiple. *)
let fake_clock () =
  let t = ref 0.0 in
  fun () ->
    t := !t +. 0.001;
    !t

let parse_json s =
  match Json.parse s with Ok v -> v | Error e -> Alcotest.failf "JSON does not parse: %s" e

let obj_field name = function
  | Json.JObj fields -> List.assoc_opt name fields
  | _ -> None

(* --- trace tests ------------------------------------------------------ *)

let test_span_nesting () =
  Trace.enable ~clock:(fake_clock ()) ();
  Fun.protect ~finally:Trace.disable @@ fun () ->
  let r =
    Trace.with_span "outer" (fun () ->
        Trace.with_span "inner" (fun () -> 21) * 2)
  in
  Alcotest.(check int) "wrapped value returned" 42 r;
  Trace.instant "marker";
  match Trace.events () with
  | [ inner; outer; marker ] ->
    (* inner completes (and records) before outer: innermost-first order. *)
    Alcotest.(check string) "inner first" "inner" inner.Trace.ev_name;
    Alcotest.(check string) "outer second" "outer" outer.Trace.ev_name;
    Alcotest.(check string) "marker last" "marker" marker.Trace.ev_name;
    Alcotest.(check bool) "instants have no duration" true (marker.Trace.ev_dur = None);
    let dur e = Option.get e.Trace.ev_dur in
    (* Fake clock ticks 1ms per read: outer spans inner's reads plus its
       own, so it must start earlier and last strictly longer. *)
    Alcotest.(check bool) "outer starts before inner" true
      (outer.Trace.ev_ts < inner.Trace.ev_ts);
    Alcotest.(check bool) "outer outlasts inner" true (dur outer > dur inner);
    Alcotest.(check bool) "durations positive" true (dur inner > 0.0)
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)

let test_span_args_and_exceptions () =
  Trace.enable ~clock:(fake_clock ()) ();
  Fun.protect ~finally:Trace.disable @@ fun () ->
  let r =
    Trace.with_span "solve"
      ~args:[ ("kind", Trace.Str "lb") ]
      ~result:(fun v -> [ ("value", Trace.Int v) ])
      (fun () -> 7)
  in
  Alcotest.(check int) "result passthrough" 7 r;
  (try
     Trace.with_span "boom" (fun () -> failwith "exploded") |> ignore;
     Alcotest.fail "exception swallowed"
   with Failure m -> Alcotest.(check string) "exception re-raised" "exploded" m);
  match Trace.events () with
  | [ solve; boom ] ->
    Alcotest.(check bool) "static arg recorded" true
      (List.assoc "kind" solve.Trace.ev_args = Trace.Str "lb");
    Alcotest.(check bool) "result arg recorded" true
      (List.assoc "value" solve.Trace.ev_args = Trace.Int 7);
    Alcotest.(check bool) "raising span still recorded" true
      (List.mem_assoc "raised" boom.Trace.ev_args)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_disabled_is_transparent () =
  Trace.disable ();
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  let r = Trace.with_span "ghost" (fun () -> 5) in
  Alcotest.(check int) "value flows through" 5 r;
  Trace.instant "ghost-marker";
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace.events ()))

let test_ring_overflow () =
  Trace.enable ~clock:(fake_clock ()) ~capacity:4 ();
  Fun.protect ~finally:Trace.disable @@ fun () ->
  for i = 1 to 10 do
    Trace.instant (Printf.sprintf "ev%d" i)
  done;
  Alcotest.(check int) "dropped count" 6 (Trace.dropped ());
  let names = List.map (fun e -> e.Trace.ev_name) (Trace.events ()) in
  Alcotest.(check (list string)) "oldest overwritten, order kept"
    [ "ev7"; "ev8"; "ev9"; "ev10" ] names

let test_chrome_json_well_formed () =
  Trace.enable ~clock:(fake_clock ()) ();
  Fun.protect ~finally:Trace.disable @@ fun () ->
  Trace.with_span ~cat:"lp" "solve \"quoted\"\n"
    ~result:(fun () -> [ ("nan_arg", Trace.Float nan); ("ok", Trace.Bool true) ])
    (fun () -> ());
  Trace.instant ~cat:"recovery" ~args:[ ("n", Trace.Int 3) ] "marker";
  let doc = parse_json (Trace.to_chrome_json ()) in
  let events =
    match obj_field "traceEvents" doc with
    | Some (Json.JList evs) -> evs
    | _ -> Alcotest.fail "missing traceEvents array"
  in
  (* two recorded events + the trailing trace.dropped accounting instant *)
  Alcotest.(check int) "both events + drop accounting exported" 3 (List.length events);
  (match List.rev events with
  | summary :: _ ->
    Alcotest.(check bool) "last event is trace.dropped" true
      (obj_field "name" summary = Some (Json.JStr "trace.dropped"));
    (match obj_field "args" summary with
    | Some args ->
      Alcotest.(check bool) "dropped count present" true
        (obj_field "dropped" args = Some (Json.JNum 0.0));
      Alcotest.(check bool) "recorded count present" true
        (obj_field "recorded" args = Some (Json.JNum 2.0))
    | None -> Alcotest.fail "trace.dropped missing args")
  | [] -> Alcotest.fail "no events");
  let events = List.filteri (fun i _ -> i < 2) events in
  Alcotest.(check bool) "displayTimeUnit present" true
    (obj_field "displayTimeUnit" doc = Some (Json.JStr "ms"));
  List.iter
    (fun ev ->
      (match obj_field "ph" ev with
      | Some (Json.JStr ("X" | "i")) -> ()
      | _ -> Alcotest.fail "bad or missing ph");
      (match obj_field "ts" ev with
      | Some (Json.JNum ts) -> Alcotest.(check bool) "ts in microseconds, positive" true (ts > 0.0)
      | _ -> Alcotest.fail "missing ts");
      match obj_field "tid" ev with
      | Some (Json.JNum _) -> ()
      | _ -> Alcotest.fail "missing tid")
    events;
  let span = List.hd events in
  (match obj_field "dur" span with
  | Some (Json.JNum d) ->
    (* one fake-clock tick = 1ms = 1000us *)
    Alcotest.(check (float 1.0)) "dur is the clock delta in us" 1000.0 d
  | _ -> Alcotest.fail "span missing dur");
  match obj_field "args" span with
  | Some args ->
    Alcotest.(check bool) "bool arg survives" true (obj_field "ok" args = Some (Json.JBool true));
    (match obj_field "nan_arg" args with
    | Some (Json.JStr _) -> () (* non-finite floats are quoted, keeping the JSON valid *)
    | _ -> Alcotest.fail "nan arg not quoted")
  | None -> Alcotest.fail "span missing args"

let test_multi_domain_spans () =
  Trace.enable ();
  Fun.protect ~finally:Trace.disable @@ fun () ->
  (* Eight slow-ish tasks across four (oversubscribed) domains: with the
     work-stealing pool, at least two distinct domains must record spans.
     This is the regression for --trace under --jobs N: pool.task events
     carry the recording domain in ev_tid. *)
  let results =
    Pool.map ~oversubscribe:true ~jobs:4
      (fun i ->
        Unix.sleepf 0.002;
        i * i)
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  Alcotest.(check (list int)) "pool results ordered"
    [ 1; 4; 9; 16; 25; 36; 49; 64 ] results;
  let tids =
    List.sort_uniq compare
      (List.filter_map
         (fun e -> if e.Trace.ev_name = "pool.task" then Some e.Trace.ev_tid else None)
         (Trace.events ()))
  in
  Alcotest.(check bool)
    (Printf.sprintf "spans from >1 domain (got %d)" (List.length tids))
    true
    (List.length tids > 1)

(* --- metrics tests ---------------------------------------------------- *)

let test_metrics_registry () =
  let c = Metrics.counter "test_obs.counter" in
  Metrics.set_counter c 0;
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "counter accumulates" 5 (Metrics.counter_value c);
  Alcotest.(check bool) "registration is idempotent" true
    (Metrics.counter "test_obs.counter" == c);
  (try
     ignore (Metrics.gauge "test_obs.counter");
     Alcotest.fail "kind clash not detected"
   with Invalid_argument _ -> ());
  let g = Metrics.gauge "test_obs.gauge" in
  Metrics.set_gauge g 2.5;
  Alcotest.(check (float 0.0)) "gauge last-write-wins" 2.5 (Metrics.gauge_value g);
  let h = Metrics.histogram "test_obs.histo" in
  Metrics.observe h 3.0;
  Metrics.observe h 1.0;
  Metrics.observe h 2.0;
  match Metrics.find (Metrics.snapshot ()) "test_obs.histo" with
  | Some (Metrics.Histogram { h_count; h_sum; h_min; h_max; _ }) ->
    Alcotest.(check int) "histo count" 3 h_count;
    Alcotest.(check (float 1e-9)) "histo sum" 6.0 h_sum;
    Alcotest.(check (float 0.0)) "histo min" 1.0 h_min;
    Alcotest.(check (float 0.0)) "histo max" 3.0 h_max
  | _ -> Alcotest.fail "histogram missing from snapshot"

let test_metrics_delta_concurrent () =
  let c = Metrics.counter "test_obs.concurrent" in
  Metrics.set_counter c 0;
  let before = Metrics.snapshot () in
  (* 8 tasks x 1000 increments from 4 oversubscribed domains: the atomic
     counter must not lose updates, and the delta must window out anything
     counted before the snapshot. *)
  ignore
    (Pool.map ~oversubscribe:true ~jobs:4
       (fun _ ->
         for _ = 1 to 1000 do
           Metrics.incr c
         done)
       [ (); (); (); (); (); (); (); () ]);
  let d = Metrics.delta ~before (Metrics.snapshot ()) in
  match Metrics.find d "test_obs.concurrent" with
  | Some (Metrics.Counter n) -> Alcotest.(check int) "no lost updates" 8000 n
  | _ -> Alcotest.fail "counter missing from delta"

let test_metrics_renderers () =
  let c = Metrics.counter "test_obs.render" in
  Metrics.set_counter c 12;
  let snap = Metrics.snapshot () in
  let text = Metrics.to_text snap in
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  Alcotest.(check bool) "text mentions the counter" true (contains text "test_obs.render");
  (* to_json must round-trip through the JSON reader; names are keys. *)
  match obj_field "test_obs.render" (parse_json (Json.to_string (Metrics.to_json snap))) with
  | Some (Json.JNum v) -> Alcotest.(check (float 0.0)) "json value" 12.0 v
  | _ -> Alcotest.fail "counter missing from JSON rendering"

(* Full to_json round-trip through Json.to_string and Json.parse: escaped names,
   non-finite floats (quoted, keeping the document valid) and histogram
   objects all survive. *)
let test_metrics_json_round_trip () =
  let name = {|test_obs.esc "q" \ name|} in
  let c = Metrics.counter name in
  Metrics.set_counter c 3;
  let g = Metrics.gauge "test_obs.nonfinite" in
  Metrics.set_gauge g Float.infinity;
  let h = Metrics.histogram "test_obs.rt_histo" in
  Metrics.observe h 1.5;
  Metrics.observe h 2.5;
  let doc = parse_json (Json.to_string (Metrics.to_json (Metrics.snapshot ()))) in
  (match obj_field name doc with
  | Some (Json.JNum v) -> Alcotest.(check (float 0.0)) "escaped name round-trips" 3.0 v
  | _ -> Alcotest.fail "escaped counter name missing after round-trip");
  (match obj_field "test_obs.nonfinite" doc with
  | Some (Json.JStr s) -> Alcotest.(check string) "non-finite gauge quoted" "inf" s
  | _ -> Alcotest.fail "non-finite gauge not rendered as a quoted string");
  match obj_field "test_obs.rt_histo" doc with
  | Some (Json.JObj _ as hj) ->
    Alcotest.(check bool) "histo count" true (obj_field "count" hj = Some (Json.JNum 2.0));
    Alcotest.(check bool) "histo sum" true (obj_field "sum" hj = Some (Json.JNum 4.0));
    Alcotest.(check bool) "histo min" true (obj_field "min" hj = Some (Json.JNum 1.5));
    Alcotest.(check bool) "histo max" true (obj_field "max" hj = Some (Json.JNum 2.5))
  | _ -> Alcotest.fail "histogram not rendered as an object"

(* --- JSON value type ---------------------------------------------------- *)

(* Seeded sweep: every printed document parses back to the same value —
   nested objects and lists, strings with quotes, backslashes, control
   and high bytes, integers up to +-2^53 and finite floats. *)
let test_json_round_trip () =
  let rng = Random.State.make [| 19 |] in
  let chars = "ab \"\\/\n\r\t\b\012\000\031\127\195\169{}[]:,0" in
  let str () =
    String.init (Random.State.int rng 8) (fun _ ->
        chars.[Random.State.int rng (String.length chars)])
  in
  let num () =
    match Random.State.int rng 3 with
    | 0 -> float_of_int (Random.State.int rng 2001 - 1000)
    | 1 ->
      let m = Int64.to_float (Random.State.int64 rng 9007199254740993L) in
      if Random.State.bool rng then -.m else m
    | _ -> Float.ldexp (Random.State.float rng 2.0 -. 1.0) (Random.State.int rng 200 - 100)
  in
  let rec value depth =
    let items f = List.init (Random.State.int rng 4) (fun _ -> f (depth - 1)) in
    match Random.State.int rng (if depth = 0 then 4 else 6) with
    | 0 -> Json.JNull
    | 1 -> Json.JBool (Random.State.bool rng)
    | 2 -> Json.JNum (num ())
    | 3 -> Json.JStr (str ())
    | 4 -> Json.JList (items value)
    | _ -> Json.JObj (items (fun d -> (str (), value d)))
  in
  for i = 1 to 2000 do
    let v = value 4 in
    let text = Json.to_string v in
    if Json.parse text <> Ok v then Alcotest.failf "case %d does not round-trip:\n%s" i text
  done

let test_json_layout () =
  let doc =
    Json.JObj
      [
        ("n", Json.int 3);
        ( "nested",
          Json.JObj [ ("xs", Json.JList [ Json.JBool true; Json.JNull ]); ("s", Json.JStr "a\"b") ]
        );
        ("empty", Json.JObj []);
        ("nan", Json.JNum Float.nan);
        ("inf", Json.JNum Float.infinity);
      ]
  in
  Alcotest.(check string) "top level one per line, nested inline, non-finite quoted"
    {|{
  "n": 3,
  "nested": {"xs": [true, null], "s": "a\"b"},
  "empty": {},
  "nan": "nan",
  "inf": "inf"
}
|}
    (Json.to_string doc);
  Alcotest.(check string) "empty top-level object" "{\n}\n" (Json.to_string (Json.JObj []));
  Alcotest.(check string) "top-level array" "[\n  1,\n  []\n]\n"
    (Json.to_string (Json.JList [ Json.int 1; Json.JList [] ]));
  Alcotest.(check bool) "trailing garbage is an error" true
    (Result.is_error (Json.parse "[1, 2] x"))

let suite =
  [
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
    Alcotest.test_case "span args, results, exceptions" `Quick test_span_args_and_exceptions;
    Alcotest.test_case "disabled tracing is transparent" `Quick test_disabled_is_transparent;
    Alcotest.test_case "ring buffer overflow" `Quick test_ring_overflow;
    Alcotest.test_case "chrome JSON well-formed" `Quick test_chrome_json_well_formed;
    Alcotest.test_case "spans from multiple domains" `Quick test_multi_domain_spans;
    Alcotest.test_case "metrics registry basics" `Quick test_metrics_registry;
    Alcotest.test_case "metrics delta under concurrency" `Quick test_metrics_delta_concurrent;
    Alcotest.test_case "metrics renderers" `Quick test_metrics_renderers;
    Alcotest.test_case "metrics JSON round-trip" `Quick test_metrics_json_round_trip;
    Alcotest.test_case "JSON print/parse round-trip sweep" `Quick test_json_round_trip;
    Alcotest.test_case "JSON layout" `Quick test_json_layout;
  ]
