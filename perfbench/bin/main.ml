(* The repository benchmark. Runs the chosen workloads at one seed, prints
   every metric with its unit, writes BENCHMARK.summary.json beside
   BENCHMARK.json, and ends with the one-line JSON result.

   Usage: main.exe [--workload portfolio,sessions,soak|all] [--seed N]
                   [--seconds S] [--trace 0|1] *)

open Perfbench

let () =
  let workloads = ref "all" and seed = ref 1 and seconds = ref 40. and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workloads, "NAMES comma-separated workloads, or all");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time: passes repeat until it is spent, at least three");
      ("--trace", Arg.Set_int trace, "0|1 1 adds traced passes and reports per-layer metrics");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe [options]";
  let names =
    if !workloads = "all" then List.map (fun w -> w.Bench.name) Bench.workloads
    else String.split_on_char ',' !workloads
  in
  let selected =
    List.map
      (fun n ->
        match Bench.find n with
        | Some w -> w
        | None ->
          Printf.eprintf "unknown workload %s\n" n;
          exit 2)
      names
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let trace = !trace = 1 in
  let results =
    List.map
      (fun w ->
        let r = Bench.run w ~seed:!seed ~seconds:!seconds ~trace ~smoke:false in
        Bench.print_text r;
        r)
      selected
  in
  Bench.write_summary "BENCHMARK.summary.json" ~seed:!seed ~seconds:!seconds ~trace results;
  print_endline (Bench.result_line results)
