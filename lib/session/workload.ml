type params = {
  arrival_rate : float;
  hold_mean : float;
  hold_alpha : float;
  demand_frac : float * float;
  targets_min : int;
  targets_max : int;
  priorities : int;
  flash_rate : float;
  flash_size : int;
  flash_window : float;
  flash_targets : int;
}

let default_params =
  {
    arrival_rate = 0.1;
    hold_mean = 80.0;
    hold_alpha = 1.6;
    demand_frac = (0.3, 0.9);
    targets_min = 2;
    targets_max = 5;
    priorities = 3;
    flash_rate = 0.005;
    flash_size = 4;
    flash_window = 2.0;
    flash_targets = 8;
  }

let validate_params q =
  let err m = Error ("workload: " ^ m) in
  (* Comparisons alone let NaN and infinity through. *)
  let positive x = Float.is_finite x && x > 0.0 in
  if not (positive q.arrival_rate) then err "arrival_rate must be positive and finite"
  else if not (positive q.hold_mean) then err "hold_mean must be positive and finite"
  else if not (Float.is_finite q.hold_alpha && q.hold_alpha > 1.0) then
    err "hold_alpha must be finite and exceed 1 (finite mean)"
  else if
    not
      (fst q.demand_frac > 0.0
      && snd q.demand_frac >= fst q.demand_frac
      && snd q.demand_frac <= 1.0)
  then err "demand_frac must be a nonempty range within (0, 1]"
  else if q.targets_min < 1 || q.targets_max < q.targets_min then
    err "targets range must be a nonempty positive range"
  else if q.priorities < 1 then err "priorities must be >= 1"
  else if not (Float.is_finite q.flash_rate && q.flash_rate >= 0.0) then
    err "flash_rate must be finite and >= 0"
  else if q.flash_rate > 0.0 && (q.flash_size < 1 || not (positive q.flash_window)) then
    err "flash crowds need a positive size and a positive finite window"
  else Ok ()

(* Heavy-tailed holding times: Pareto with tail index alpha and the scale
   chosen so the mean is [hold_mean] (xm = mean * (alpha-1) / alpha).
   Most sessions are short; a few hold capacity for many epochs — the
   churn mix that makes incremental re-planning worth having. Truncated
   at 100x the mean so a single draw cannot dominate a whole workload. *)
let pareto_draw rng ~mean ~alpha =
  let xm = mean *. (alpha -. 1.0) /. alpha in
  let u = Random.State.float rng 1.0 in
  Float.min (100.0 *. mean) (xm /. ((1.0 -. u) ** (1.0 /. alpha)))

(* Demands are calibrated, not absolute: on heterogeneous platforms a
   single multicast's standalone throughput spans orders of magnitude
   (a wide-fanout session across WAN links may cap at 1/1000 msg/unit
   while a one-LAN session reaches 1/20), so fixed demands either
   saturate the platform with one session or never create contention.
   Each session instead demands a uniform fraction (drawn on a 1/100
   grid) of what MCPH could give it on the empty platform. *)
let draw_session rng (p : Platform.t) q ~id ~at ~n_targets =
  let pool =
    match Platform.lan_nodes p with
    | _ :: _ :: _ as lans -> lans
    | _ -> Platform.active_nodes p
  in
  let sources =
    match List.filter (fun v -> not (List.mem v pool)) (Platform.active_nodes p) with
    | [] -> Platform.active_nodes p
    | routers -> routers
  in
  let source = List.nth sources (Random.State.int rng (List.length sources)) in
  let candidates = List.filter (fun v -> v <> source) pool in
  let k = max 1 (min n_targets (List.length candidates)) in
  let targets = Generators.sample_without_replacement rng k candidates in
  let lo, hi = q.demand_frac in
  let frac =
    let pct = int_of_float (Float.round (100.0 *. (lo +. Random.State.float rng (hi -. lo)))) in
    Rat.of_ints (max 1 pct) 100
  in
  let standalone =
    match
      Mcph.run
        (Platform.restrict
           (Platform.make ~kinds:p.Platform.kinds p.Platform.graph ~source ~targets)
           ~keep:(Platform.is_active p))
    with
    | Some r -> r.Mcph.throughput
    | None -> Rat.of_ints 1 100
  in
  let demand = Rat.mul frac standalone in
  let priority = Random.State.int rng q.priorities in
  let holding = Fault.grid_time (pareto_draw rng ~mean:q.hold_mean ~alpha:q.hold_alpha) in
  Session.make ~id ~source ~targets ~demand ~priority ~arrival:at
    ~departure:(Rat.add at holding)

let generate rng (p : Platform.t) q ~horizon =
  (match validate_params q with Ok () -> () | Error e -> invalid_arg e);
  if Rat.sign horizon <= 0 then invalid_arg "workload: horizon must be positive";
  let sessions = ref [] and id = ref 0 in
  let push s =
    sessions := s :: !sessions;
    incr id
  in
  let rand_targets () =
    q.targets_min + Random.State.int rng (q.targets_max - q.targets_min + 1)
  in
  (* Poisson arrivals: exponential inter-arrival gaps walked to the horizon. *)
  let t = ref (Fault.exp_time rng ~mean:(1.0 /. q.arrival_rate)) in
  while Rat.(!t < horizon) do
    push (draw_session rng p q ~id:!id ~at:!t ~n_targets:(rand_targets ()));
    t := Rat.add !t (Fault.exp_time rng ~mean:(1.0 /. q.arrival_rate))
  done;
  (* Flash crowds: a Poisson process of bursts; each burst packs
     [flash_size] wide-fanout sessions into a short arrival window —
     the renewal-style correlated machinery of Fault.random_burst,
     recast as demand instead of damage. *)
  if q.flash_rate > 0.0 then begin
    let t = ref (Fault.exp_time rng ~mean:(1.0 /. q.flash_rate)) in
    while Rat.(!t < horizon) do
      for _ = 1 to q.flash_size do
        let jitter = Fault.grid_time (Random.State.float rng q.flash_window) in
        push
          (draw_session rng p q ~id:!id
             ~at:(Rat.add !t jitter)
             ~n_targets:q.flash_targets)
      done;
      t := Rat.add !t (Fault.exp_time rng ~mean:(1.0 /. q.flash_rate))
    done
  end;
  List.sort
    (fun (a : Session.t) b ->
      match Rat.compare a.Session.arrival b.Session.arrival with
      | 0 -> compare a.Session.id b.Session.id
      | c -> c)
    !sessions

let validate (p : Platform.t) sessions =
  let rec go seen = function
    | [] -> Ok ()
    | (s : Session.t) :: rest ->
      if List.mem s.Session.id seen then
        Error (Printf.sprintf "duplicate session id %d" s.Session.id)
      else (
        match Session.validate p s with
        | Error e -> Error e
        | Ok () -> go (s.Session.id :: seen) rest)
  in
  let sorted =
    let rec is_sorted = function
      | (a : Session.t) :: (b : Session.t) :: rest ->
        Rat.(a.Session.arrival <= b.Session.arrival) && is_sorted (b :: rest)
      | _ -> true
    in
    is_sorted sessions
  in
  if not sorted then Error "sessions not sorted by arrival" else go [] sessions

let describe sessions =
  let n = List.length sessions in
  let flash = List.length (List.filter (fun (s : Session.t) -> List.length s.Session.targets >= 6) sessions) in
  let total_demand =
    List.fold_left (fun a (s : Session.t) -> a +. Rat.to_float s.Session.demand) 0.0 sessions
  in
  Printf.sprintf "%d sessions (%d wide-fanout), total demand %.2f msg/unit" n flash
    total_demand
