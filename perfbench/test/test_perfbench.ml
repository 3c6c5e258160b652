open Perfbench

let names l = List.map fst l

(* The portfolio calls each method's public function itself; on one
   instance the periods must be exactly the ones Heuristics.run_all
   reports. *)
let test_run_all_reproduced () =
  let p = snd (List.hd (Wl_portfolio.deck ~seed:1 ~smoke:true)) in
  Acc.isolate ();
  let expected =
    List.map (fun e -> e.Heuristics.period) (Heuristics.run_all p).Heuristics.entries
  in
  Acc.isolate ();
  let plans, _, _ = Wl_portfolio.plan (Acc.create ()) p in
  Alcotest.(check (list (float 0.))) "periods" expected (Wl_portfolio.periods plans)

let test_nearest_rank () =
  let xs = [ 35.; 20.; 50.; 15.; 40. ] in
  let at q = Stats.nearest_rank q xs in
  Alcotest.(check (list (float 0.)))
    "nearest rank" [ 15.; 20.; 20.; 35.; 50. ]
    [ at 0.05; at 0.3; at 0.4; at 0.5; at 1.0 ];
  let one_to n = List.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.)) "p95 of 1..100" 95. (Stats.nearest_rank 0.95 (one_to 100));
  Alcotest.(check (float 0.)) "p95 of 1..20" 19. (Stats.nearest_rank 0.95 (one_to 20));
  Alcotest.(check (float 0.)) "even median is the lower middle" 2. (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check (float 0.)) "empty" 0. (Stats.median [])

let epoch ~arrivals ~replans seconds =
  {
    Horizon.ep_index = 0;
    ep_time = Rat.zero;
    ep_arrivals = arrivals;
    ep_admitted = 0;
    ep_rejected = 0;
    ep_preempted = 0;
    ep_degraded = 0;
    ep_suspended = 0;
    ep_replans = replans;
    ep_replans_skipped = 3;
    ep_active = 2;
    ep_seconds = seconds;
    ep_max_port = Rat.zero;
  }

let test_busy_epochs () =
  let epochs =
    [
      epoch ~arrivals:0 ~replans:0 0.0002;
      epoch ~arrivals:1 ~replans:0 0.01;
      epoch ~arrivals:0 ~replans:2 0.02;
      epoch ~arrivals:3 ~replans:1 0.03;
      epoch ~arrivals:0 ~replans:0 0.0001;
    ]
  in
  Alcotest.(check (list (float 0.)))
    "busy only" [ 0.01; 0.02; 0.03 ] (Stats.busy_epoch_seconds epochs)

(* The values of ["key": "..."] in file order. *)
let string_values key text =
  let pat = Printf.sprintf "\"%s\": \"" key in
  let n = String.length pat in
  let rec go i acc =
    match String.index_from_opt text i '"' with
    | None -> List.rev acc
    | Some j when j + n <= String.length text && String.sub text j n = pat ->
      let stop = String.index_from text (j + n) '"' in
      go (stop + 1) (String.sub text (j + n) (stop - j - n) :: acc)
    | Some j -> go (j + 1) acc
  in
  go 0 []

let test_names () =
  let all = names Bench.end_to_end @ names Bench.per_layer in
  let valid s =
    s <> "" && String.length s <= 64
    && String.for_all
         (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
         s
  in
  List.iter (fun s -> Alcotest.(check bool) ("valid name " ^ s) true (valid s)) all;
  Alcotest.(check int) "unique" (List.length all) (List.length (List.sort_uniq compare all));
  let spec = In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all in
  let workloads = List.map (fun w -> w.Bench.name) Bench.workloads in
  Alcotest.(check (list string)) "BENCHMARK.json names" (workloads @ all) (string_values "name" spec);
  Alcotest.(check (list string))
    "BENCHMARK.json units"
    (List.map snd (Bench.end_to_end @ Bench.per_layer))
    (string_values "unit" spec)

let smoke w () =
  List.iter
    (fun (trace, expected) ->
      let r = Bench.run w ~seed:1 ~seconds:1. ~trace ~smoke:true in
      Alcotest.(check (list string)) "failures" [] r.Bench.failures;
      Alcotest.(check bool) "attempted" true (r.Bench.attempted > 0);
      Alcotest.(check (list string))
        "metric names" (names expected)
        (List.map (fun (n, _, _) -> n) r.Bench.metrics);
      List.iter
        (fun (n, v, u) ->
          Alcotest.(check bool) (n ^ " finite") true (Float.is_finite v);
          Alcotest.(check string) (n ^ " unit") (List.assoc n expected) u)
        r.Bench.metrics;
      if trace then
        Alcotest.(check (float 0.))
          "nothing dropped" 0.
          (List.assoc "obs.trace_dropped" (List.map (fun (n, v, _) -> (n, v)) r.Bench.metrics)))
    [ (false, Bench.end_to_end); (true, Bench.per_layer) ]

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_nearest_rank;
          Alcotest.test_case "busy-epoch filter" `Quick test_busy_epochs;
        ] );
      ("names", [ Alcotest.test_case "metric names" `Quick test_names ]);
      ( "portfolio",
        [ Alcotest.test_case "per-method calls match run_all" `Quick test_run_all_reproduced ] );
      ( "smoke",
        List.map (fun w -> Alcotest.test_case w.Bench.name `Quick (smoke w)) Bench.workloads );
    ]
