type direction = At_least | At_most

type objective = {
  o_name : string;
  o_series : string;
  o_dir : direction;
  o_threshold : float;
  o_budget : float;
  o_fast_window : float;
  o_slow_window : float;
  o_fast_burn : float;
  o_slow_burn : float;
  o_hold_down : float;
}

let dir_op = function At_least -> ">=" | At_most -> "<="

let spec_of ~series ~dir ~threshold = Printf.sprintf "%s%s%g" series (dir_op dir) threshold

let objective ?name ?budget ?(fast_window = 10.0) ?(slow_window = 50.0) ?(fast_burn = 2.0)
    ?(slow_burn = 1.0) ?(hold_down = 10.0) ~series dir threshold =
  let budget =
    match budget with
    | Some b -> Float.max 1e-9 (Float.min 1.0 b)
    | None ->
      (* "availability >= 0.99" naturally grants a 1% error budget. *)
      if dir = At_least && threshold > 0.0 && threshold < 1.0 then
        Float.max 0.001 (Float.min 0.5 (1.0 -. threshold))
      else 0.05
  in
  let name = match name with Some n -> n | None -> spec_of ~series ~dir ~threshold in
  {
    o_name = name;
    o_series = series;
    o_dir = dir;
    o_threshold = threshold;
    o_budget = budget;
    o_fast_window = Float.max 1e-9 fast_window;
    o_slow_window = Float.max (Float.max 1e-9 fast_window) slow_window;
    o_fast_burn = fast_burn;
    o_slow_burn = slow_burn;
    o_hold_down = Float.max 0.0 hold_down;
  }

let spec o = spec_of ~series:o.o_series ~dir:o.o_dir ~threshold:o.o_threshold

(* A NaN threshold never breaches and an infinite one always does. *)
let finite v =
  Option.bind (float_of_string_opt v) (fun f -> if Float.is_finite f then Some f else None)

let parse s =
  let s = String.trim s in
  let split_on_op () =
    match String.index_opt s '>' with
    | Some i when i + 1 < String.length s && s.[i + 1] = '=' ->
      Some (String.sub s 0 i, At_least, String.sub s (i + 2) (String.length s - i - 2))
    | _ -> (
      match String.index_opt s '<' with
      | Some i when i + 1 < String.length s && s.[i + 1] = '=' ->
        Some (String.sub s 0 i, At_most, String.sub s (i + 2) (String.length s - i - 2))
      | _ -> None)
  in
  match split_on_op () with
  | None -> Error (Printf.sprintf "SLO spec %S: expected series>=THRESHOLD or series<=THRESHOLD" s)
  | Some (series, dir, rest) -> (
    let series = String.trim series in
    if series = "" then Error (Printf.sprintf "SLO spec %S: empty series name" s)
    else
      match String.split_on_char ',' rest with
      | [] -> Error (Printf.sprintf "SLO spec %S: missing threshold" s)
      | thr :: opts -> (
        match finite (String.trim thr) with
        | None -> Error (Printf.sprintf "SLO spec %S: bad threshold %S" s thr)
        | Some threshold -> (
          let budget = ref None
          and fast = ref None
          and slow = ref None
          and fastburn = ref None
          and slowburn = ref None
          and hold = ref None
          and name = ref None
          and err = ref None in
          List.iter
            (fun opt ->
              if !err = None then
                match String.index_opt opt '=' with
                | None -> err := Some (Printf.sprintf "bad option %S (want key=value)" opt)
                | Some i -> (
                  let k = String.trim (String.sub opt 0 i)
                  and v = String.trim (String.sub opt (i + 1) (String.length opt - i - 1)) in
                  let fv () =
                    match finite v with
                    | Some f -> Some f
                    | None ->
                      err := Some (Printf.sprintf "bad value %S for %s" v k);
                      None
                  in
                  match k with
                  | "budget" -> budget := fv ()
                  | "fast" -> fast := fv ()
                  | "slow" -> slow := fv ()
                  | "fastburn" -> fastburn := fv ()
                  | "slowburn" -> slowburn := fv ()
                  | "hold" -> hold := fv ()
                  | "name" -> name := Some v
                  | _ -> err := Some (Printf.sprintf "unknown option %S" k)))
            opts;
          match !err with
          | Some e -> Error (Printf.sprintf "SLO spec %S: %s" s e)
          | None ->
            Ok
              (objective ?name:!name ?budget:!budget ?fast_window:!fast ?slow_window:!slow
                 ?fast_burn:!fastburn ?slow_burn:!slowburn ?hold_down:!hold ~series dir
                 threshold))))

type event = {
  e_kind : [ `Breach | `Recovery ];
  e_at : float;
  e_objective : string;
  e_fast_burn : float;
  e_slow_burn : float;
}

type ostate = {
  os_obj : objective;
  (* newest-first (time, bad) samples within the slow window *)
  mutable os_samples : (float * bool) list;
  mutable os_breached : bool;
  mutable os_ok_since : float option;  (* recovery hysteresis anchor *)
  mutable os_burn : (float * float) option;  (* (fast, slow) after last sample *)
}

type engine = {
  en_states : ostate list;
  mutable en_events : event list;  (* newest first *)
  mutable en_breach_epochs : int;
  mutable en_max_burn : float;
}

let m_breaches = Metrics.counter "slo.breaches"
let m_recoveries = Metrics.counter "slo.recoveries"
let m_breach_epochs = Metrics.counter "slo.breach_epochs"
let m_max_burn = Metrics.gauge "slo.max_burn_rate"

let engine objs =
  {
    en_states =
      List.map
        (fun o ->
          { os_obj = o; os_samples = []; os_breached = false; os_ok_since = None; os_burn = None })
        objs;
    en_events = [];
    en_breach_epochs = 0;
    en_max_burn = 0.0;
  }

let is_bad o v = match o.o_dir with At_least -> v < o.o_threshold | At_most -> v > o.o_threshold

let burn_over samples ~since ~budget =
  let total = ref 0 and bad = ref 0 in
  List.iter
    (fun (t, b) ->
      if t >= since then begin
        incr total;
        if b then incr bad
      end)
    samples;
  if !total = 0 then 0.0 else float_of_int !bad /. float_of_int !total /. budget

let observe_state en st ~time v =
  let o = st.os_obj in
  let bad = is_bad o v in
  let cutoff = time -. o.o_slow_window in
  st.os_samples <- (time, bad) :: List.filter (fun (t, _) -> t >= cutoff) st.os_samples;
  let fb = burn_over st.os_samples ~since:(time -. o.o_fast_window) ~budget:o.o_budget in
  let sb = burn_over st.os_samples ~since:cutoff ~budget:o.o_budget in
  st.os_burn <- Some (fb, sb);
  if fb > en.en_max_burn then begin
    en.en_max_burn <- fb;
    Metrics.set_gauge m_max_burn fb
  end;
  let burning = fb >= o.o_fast_burn && sb >= o.o_slow_burn in
  let out = ref [] in
  (if not st.os_breached then begin
     if burning then begin
       st.os_breached <- true;
       st.os_ok_since <- None;
       Metrics.incr m_breaches;
       out :=
         [ { e_kind = `Breach; e_at = time; e_objective = o.o_name; e_fast_burn = fb; e_slow_burn = sb } ]
     end
   end
   else if burning then st.os_ok_since <- None
   else
     match st.os_ok_since with
     | None -> st.os_ok_since <- Some time
     | Some t0 ->
       if time -. t0 >= o.o_hold_down then begin
         st.os_breached <- false;
         st.os_ok_since <- None;
         Metrics.incr m_recoveries;
         out :=
           [
             {
               e_kind = `Recovery;
               e_at = time;
               e_objective = o.o_name;
               e_fast_burn = fb;
               e_slow_burn = sb;
             };
           ]
       end);
  if st.os_breached then begin
    en.en_breach_epochs <- en.en_breach_epochs + 1;
    Metrics.incr m_breach_epochs
  end;
  !out

let observe en ~time series v =
  let evs =
    List.concat_map
      (fun st -> if st.os_obj.o_series = series then observe_state en st ~time v else [])
      en.en_states
  in
  en.en_events <- List.rev_append evs en.en_events;
  evs

let find_state en name = List.find_opt (fun st -> st.os_obj.o_name = name) en.en_states

let burn en name = Option.bind (find_state en name) (fun st -> st.os_burn)

let in_breach en name =
  match find_state en name with Some st -> st.os_breached | None -> false

let events en = List.rev en.en_events

let breach_epochs en = en.en_breach_epochs
