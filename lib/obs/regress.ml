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

let flatten_snapshot snap =
  List.concat_map
    (fun (name, v) ->
      match v with
      | Metrics.Counter n -> [ (name, float_of_int n) ]
      | Metrics.Gauge g -> [ (name, g) ]
      | Metrics.Histogram h ->
        [
          (name ^ ".count", float_of_int h.Metrics.h_count);
          (name ^ ".sum", h.Metrics.h_sum);
          (name ^ ".min", h.Metrics.h_min);
          (name ^ ".max", h.Metrics.h_max);
          (name ^ ".p50", Metrics.histo_percentile h 0.50);
          (name ^ ".p90", Metrics.histo_percentile h 0.90);
          (name ^ ".p99", Metrics.histo_percentile h 0.99);
        ])
    snap

(* --- minimal JSON reader ---------------------------------------------- *)

(* Just enough JSON to read back what Metrics.to_json and mcast profile
   --json write (plus anything structurally similar). No external deps,
   like the rest of lib/obs. *)

type json =
  | JNull
  | JBool of bool
  | JNum of float
  | JStr of string
  | JList of json list
  | JObj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    String.iter (fun c -> expect c) word;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
        | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance (); go ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance (); go ()
        | Some 'u' ->
          advance ();
          let hex = Buffer.create 4 in
          for _ = 1 to 4 do
            (match peek () with
            | Some c -> Buffer.add_char hex c
            | None -> fail "truncated \\u escape");
            advance ()
          done;
          (match int_of_string_opt ("0x" ^ Buffer.contents hex) with
          | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
          | Some _ -> Buffer.add_char buf '?'
          | None -> fail "bad \\u escape");
          go ()
        | Some c -> Buffer.add_char buf c; advance (); go ()
        | None -> fail "unterminated escape")
      | Some c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> JStr (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (advance (); JObj [])
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((k, v) :: acc)
          | Some '}' -> advance (); List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        JObj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (advance (); JList [])
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements (v :: acc)
          | Some ']' -> advance (); List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        JList (elements [])
      end
    | Some 't' -> literal "true" (JBool true)
    | Some 'f' -> literal "false" (JBool false)
    | Some 'n' -> literal "null" JNull
    | Some _ -> JNum (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* Flatten a JSON object into dotted [name -> float] pairs: numbers keep
   their (dot-joined) path, nested objects recurse — which is exactly how
   Metrics.to_json histograms become name.count / name.sum / ... —
   strings, bools, nulls and arrays are skipped. *)
let rec flatten_json prefix j acc =
  match j with
  | JNum f -> (prefix, f) :: acc
  | JObj fields ->
    List.fold_left
      (fun acc (k, v) ->
        let key = if prefix = "" then k else prefix ^ "." ^ k in
        flatten_json key v acc)
      acc fields
  | JNull | JBool _ | JStr _ | JList _ -> acc

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
    match parse_json text with
    | exception Bad_json e -> Error (path ^ ": " ^ e)
    | JObj fields ->
      (* mcast profile --json nests the registry under "metrics"; a bare
         Metrics.to_json object is the registry itself. *)
      let root =
        match List.assoc_opt "metrics" fields with
        | Some (JObj _ as m) -> m
        | _ -> JObj fields
      in
      Ok (List.rev (flatten_json "" root []))
    | _ -> Error (path ^ ": expected a top-level JSON object"))

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
