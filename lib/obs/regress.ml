type direction = Not_above | Not_below

type rule = { r_prefix : string; r_dir : direction; r_tol : float }

let default_rules ?(tolerance = 0.25) ?time_tolerance () =
  let tt = match time_tolerance with Some t -> t | None -> Float.max 1.0 (4.0 *. tolerance) in
  [
    (* Before the generic "lp.pivots" prefix rule: the float-engine pivot
       total is the warm-start pipeline's primary win (PR 8) and gets its
       own first-match entry so a report names it explicitly. *)
    { r_prefix = "lp.pivots.float"; r_dir = Not_above; r_tol = tolerance };
    { r_prefix = "lp.pivots"; r_dir = Not_above; r_tol = tolerance };
    { r_prefix = "lp.solves"; r_dir = Not_above; r_tol = tolerance };
    { r_prefix = "lp.warm.hits"; r_dir = Not_below; r_tol = tolerance };
    { r_prefix = "formulations.lb_cut_rounds.sum"; r_dir = Not_above; r_tol = tolerance };
    { r_prefix = "solver_chain.fallbacks"; r_dir = Not_above; r_tol = tolerance };
    { r_prefix = "heuristics.method_seconds.sum"; r_dir = Not_above; r_tol = tt };
    { r_prefix = "pool.task_seconds.sum"; r_dir = Not_above; r_tol = tt };
    { r_prefix = "recovery.replan_seconds.sum"; r_dir = Not_above; r_tol = tt };
    { r_prefix = "repair.patched"; r_dir = Not_below; r_tol = tolerance };
    { r_prefix = "repair.fallback"; r_dir = Not_above; r_tol = tolerance };
    { r_prefix = "derived.lp_cache.hit_rate"; r_dir = Not_below; r_tol = tolerance };
    (* Soak gauges are last-write-wins, so the bench runs the damped
       controller leg last: these gate the damped controller's service
       quality and re-plan spend, not the naive ablation baseline's. *)
    { r_prefix = "soak.availability"; r_dir = Not_below; r_tol = tolerance };
    { r_prefix = "soak.delivered_fraction"; r_dir = Not_below; r_tol = tolerance };
    { r_prefix = "soak.full_replans"; r_dir = Not_above; r_tol = tolerance };
    { r_prefix = "recovery.replans_per_hour"; r_dir = Not_above; r_tol = tolerance };
    (* Session engine (S1): admission count must not fall, and the
       planner's per-epoch re-plan spend must not grow — the pair that
       catches both "stopped admitting" and "stopped skipping". *)
    { r_prefix = "session.admitted"; r_dir = Not_below; r_tol = tolerance };
    { r_prefix = "session.replan_seconds.sum"; r_dir = Not_above; r_tol = tt };
    (* Tail-latency gates (PR 10): histogram snapshots now carry p50/p90/
       p99, so the p99s get their own wall-time-tolerance rules — a
       planner change that keeps the sum flat but grows the tail still
       fails. *)
    { r_prefix = "session.replan_seconds.p99"; r_dir = Not_above; r_tol = tt };
    { r_prefix = "recovery.replan_seconds.p99"; r_dir = Not_above; r_tol = tt };
    (* SLO engine (PR 10): breach exposure on the gated workloads must
       not grow, and the worst per-session delivered fraction the S1
       SLO leg reports (last-write-wins gauge, enforcement leg runs
       last) must not fall. *)
    { r_prefix = "slo.breach_epochs"; r_dir = Not_above; r_tol = tolerance };
    { r_prefix = "session.delivered_fraction.min"; r_dir = Not_below; r_tol = tolerance };
  ]

type status = Passed | Regressed | Missing

type finding = {
  f_name : string;
  f_before : float;
  f_after : float option;
  f_change : float;
  f_rule : rule;
  f_status : status;
}

type report = {
  rep_findings : finding list;
  rep_unmatched : int;
  rep_new : string list;
}

(* --- snapshot flattening ---------------------------------------------- *)

(* Flatten a JSON object into dotted [name -> float] pairs: numbers keep
   their (dot-joined) path, nested objects recurse — which is exactly how
   Metrics.to_json histograms become name.count / name.sum / ... —
   strings, bools, nulls and arrays are skipped. *)
let flatten j =
  let rec go prefix j acc =
    match j with
    | Json.JNum f -> (prefix, f) :: acc
    | Json.JObj fields ->
      List.fold_left
        (fun acc (k, v) -> go (if prefix = "" then k else prefix ^ "." ^ k) v acc)
        acc fields
    | Json.JNull | Json.JBool _ | Json.JStr _ | Json.JList _ -> acc
  in
  List.rev (go "" j [])

let flatten_snapshot snap = flatten (Metrics.to_json snap)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
    match Json.parse text with
    | Error e -> Error (path ^ ": " ^ e)
    | Ok (Json.JObj fields) ->
      (* mcast --profile nests the registry under "metrics"; a bare
         Metrics.to_json object is the registry itself. *)
      Ok
        (flatten
           (match List.assoc_opt "metrics" fields with
           | Some (Json.JObj _ as m) -> m
           | _ -> Json.JObj fields))
    | Ok _ -> Error (path ^ ": expected a top-level JSON object"))

(* --- comparison ------------------------------------------------------- *)

(* The hit *rate* is the gated quantity: raw hit counts scale with the
   workload, the fraction of lookups served from cache should not fall. *)
let with_derived entries =
  let total prefix =
    List.fold_left
      (fun acc (name, v) ->
        if String.starts_with ~prefix name then acc +. v else acc)
      0.0 entries
  in
  let hits = total "lp_cache.hits." and misses = total "lp_cache.misses." in
  if hits +. misses > 0.0 then
    ("derived.lp_cache.hit_rate", hits /. (hits +. misses)) :: entries
  else entries

let rule_for rules name = List.find_opt (fun r -> String.starts_with ~prefix:r.r_prefix name) rules

let compare_snapshots ~rules ~before after =
  let before = with_derived before and after = with_derived after in
  let findings = ref [] and unmatched = ref 0 in
  List.iter
    (fun (name, b) ->
      match rule_for rules name with
      | None -> incr unmatched
      | Some rule -> (
        match List.assoc_opt name after with
        | None ->
          findings :=
            {
              f_name = name;
              f_before = b;
              f_after = None;
              f_change = 0.0;
              f_rule = rule;
              f_status = Missing;
            }
            :: !findings
        | Some a ->
          let change =
            if b = 0.0 then if a = 0.0 then 0.0 else if a > 0.0 then infinity else neg_infinity
            else (a -. b) /. Float.abs b
          in
          let bad =
            match rule.r_dir with
            | Not_above -> change > rule.r_tol
            | Not_below -> change < -.rule.r_tol
          in
          findings :=
            {
              f_name = name;
              f_before = b;
              f_after = Some a;
              f_change = change;
              f_rule = rule;
              f_status = (if bad then Regressed else Passed);
            }
            :: !findings))
    before;
  let new_names =
    List.filter_map
      (fun (name, _) ->
        if rule_for rules name <> None && List.assoc_opt name before = None then Some name
        else None)
      after
    |> List.sort compare
  in
  {
    rep_findings = List.sort (fun a b -> compare a.f_name b.f_name) !findings;
    rep_unmatched = !unmatched;
    rep_new = new_names;
  }

let passed r = List.for_all (fun f -> f.f_status = Passed) r.rep_findings

let to_text r =
  let buf = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun f ->
      let limit =
        match f.f_rule.r_dir with
        | Not_above -> Printf.sprintf "may grow <= %.0f%%" (100.0 *. f.f_rule.r_tol)
        | Not_below -> Printf.sprintf "may fall <= %.0f%%" (100.0 *. f.f_rule.r_tol)
      in
      match f.f_status with
      | Missing ->
        pr "MISSING    %-40s baseline %g, absent from this run\n" f.f_name f.f_before
      | _ ->
        pr "%-10s %-40s %g -> %g (%+.1f%%, %s)\n"
          (if f.f_status = Regressed then "REGRESSED" else "ok")
          f.f_name f.f_before
          (match f.f_after with Some a -> a | None -> nan)
          (100.0 *. f.f_change) limit)
    r.rep_findings;
  List.iter (fun n -> pr "new        %-40s (no baseline value; informational)\n" n) r.rep_new;
  let failures = List.length (List.filter (fun f -> f.f_status <> Passed) r.rep_findings) in
  pr "regression gate: %d metric(s) checked, %d failure(s), %d uncovered metric(s) ignored — %s\n"
    (List.length r.rep_findings) failures r.rep_unmatched
    (if failures = 0 then "PASS" else "FAIL");
  Buffer.contents buf
