type replan_mode = [ `Incremental | `Cold ]

type config = { epoch : Rat.t; replan_mode : replan_mode; jobs : int }

let default_config = { epoch = Rat.of_int 5; replan_mode = `Incremental; jobs = 1 }

(* The admission ladder's fixed parameters (see horizon.mli). *)
let admit_floor = 0.5
let degrade_floor = Rat.of_ints 1 4
let slo_retention = 0.7
let rate_grid = 960
let max_preemptions = 4

let validate_config c =
  if Rat.sign c.epoch <= 0 then Error "horizon config: epoch must be positive" else Ok ()

type outcome = Completed | Active | Rejected | Preempted

let outcome_name = function
  | Completed -> "completed"
  | Active -> "active"
  | Rejected -> "rejected"
  | Preempted -> "preempted"

type session_record = {
  sr_session : Session.t;
  sr_outcome : outcome;
  sr_admitted_rate : Rat.t;
  sr_final_rate : Rat.t;
  sr_min_rate : Rat.t;
  sr_lb : float;
  sr_replans : int;
  sr_degraded_epochs : int;
  sr_burn_epochs : int;
  sr_slo_ok : bool;
}

type epoch_record = {
  ep_index : int;
  ep_time : Rat.t;
  ep_arrivals : int;
  ep_admitted : int;
  ep_rejected : int;
  ep_preempted : int;
  ep_degraded : int;
  ep_suspended : int;
  ep_replans : int;
  ep_replans_skipped : int;
  ep_active : int;
  ep_seconds : float;
  ep_max_port : Rat.t;
}

type report = {
  hz_epochs : epoch_record list;
  hz_sessions : session_record list;
  hz_admitted : int;
  hz_rejected : int;
  hz_preempted : int;
  hz_completed : int;
  hz_degradations : int;
  hz_suspensions : int;
  hz_replans : int;
  hz_replans_skipped : int;
  hz_slo_violations : int;
  hz_peak_active : int;
  hz_planner_seconds : float;
  hz_p50_epoch_seconds : float;
  hz_p99_epoch_seconds : float;
  hz_max_port_occupation : Rat.t;
  hz_admitted_rate_sum : float;
  hz_mean_lb_gap : float;
  hz_schedules : (int * int * Schedule.t) list;
  hz_min_delivered_fraction : float;
}

(* --- metrics ----------------------------------------------------------- *)

let m_admitted = Metrics.counter "session.admitted"
let m_rejected = Metrics.counter "session.rejected"
let m_preempted = Metrics.counter "session.preempted"
let m_degraded = Metrics.counter "session.degraded"
let m_suspended = Metrics.counter "session.suspended"
let m_completed = Metrics.counter "session.completed"
let m_replans = Metrics.counter "session.replans"
let m_skipped = Metrics.counter "session.replans_skipped"
let m_epoch_seconds = Metrics.histogram "session.replan_seconds"
let m_active = Metrics.gauge "session.active"
let m_df_min = Metrics.gauge "session.delivered_fraction.min"

(* --- exact-rate helpers ------------------------------------------------ *)

(* Floor onto the 1/rate_grid lattice, exactly: float rounding here could
   nudge a rate above the residual it was derived from and oversubscribe a
   port, so the division is Euclidean on the numerator. *)
let quantize_rate q =
  if Rat.sign q <= 0 then Rat.zero
  else
    let scaled = Rat.mul q (Rat.of_int rate_grid) in
    let units, _ = Zint.ediv_rem (Rat.num scaled) (Rat.den scaled) in
    Rat.make units (Zint.of_int rate_grid)

let rat_ceil_div a b =
  let q = Rat.div a b in
  let n = Rat.num q and d = Rat.den q in
  let units, _ = Zint.ediv_rem (Zint.add n (Zint.sub d Zint.one)) d in
  match Zint.to_int units with
  | Some k -> k
  | None -> invalid_arg "Horizon: horizon/epoch out of range"

(* --- per-session plan -------------------------------------------------- *)

(* The product of one planning pass for one session, computed against a
   snapshot of the other sessions' port usage. Decisions downstream use
   only the exact fields; pl_lb is the LP certificate (reporting). *)
type plan = {
  pl_tree : Multicast_tree.t;
  pl_send : (int * Rat.t) list;  (* per-message port occupations, sparse *)
  pl_recv : (int * Rat.t) list;
  pl_lb : float;
  pl_basis : Formulations.warm_basis option;
}

(* Plan one session against residual capacity. [free_send]/[free_recv]
   exclude the session's own current usage. Three steps: (1) the
   capacity-shared Multicast-LB — full-capacity model with residual
   right-hand sides, warm-started from the session's previous basis, the
   certificate of what any plan could extract; (2) MCPH on the
   residual-scaled platform (edge cost divided by the smaller adjacent
   port residual, saturated ports dropped), so the tree routes around
   contention; (3) the tree re-validated at true costs, whose exact
   occupations the caller prices against live residuals. *)
let plan_session ~chain pd (sess : Session.t) ~free_send ~free_recv ~warm =
  Trace.with_span ~cat:"session" "session.plan"
    ~result:(fun r ->
      ("session", Trace.Int sess.Session.id)
      ::
      (match r with
      | Ok pl -> [ ("lb", Trace.Float pl.pl_lb) ]
      | Error e -> [ ("error", Trace.Str e) ]))
  @@ fun () ->
  match Session.platform_for pd sess with
  | Error e -> Error e
  | Ok sp -> (
    let n = Platform.n_nodes sp in
    let cap a = Array.init n (fun v -> Float.max 0.0 (Rat.to_float a.(v))) in
    match
      Formulations.multicast_lb_warm ~chain ?warm ~send_cap:(cap free_send)
        ~recv_cap:(cap free_recv) sp
    with
    | None -> Error "no residual capacity path to every target"
    | Some (lb, basis) -> (
      let scaled = Digraph.create n in
      for v = 0 to n - 1 do
        Digraph.set_label scaled v (Digraph.label sp.Platform.graph v)
      done;
      Digraph.iter_edges
        (fun e ->
          let fs = free_send.(e.Digraph.src) and fr = free_recv.(e.Digraph.dst) in
          if Rat.sign fs > 0 && Rat.sign fr > 0 then
            Digraph.add_edge scaled ~src:e.Digraph.src ~dst:e.Digraph.dst
              ~cost:(Rat.div e.Digraph.cost (Rat.min fs fr)))
        sp.Platform.graph;
      let sp_scaled =
        Platform.restrict
          (Platform.make ~kinds:sp.Platform.kinds scaled ~source:sp.Platform.source
             ~targets:sp.Platform.targets)
          ~keep:(Platform.is_active sp)
      in
      match Mcph.run sp_scaled with
      | None -> Error "targets unreachable through unsaturated ports"
      | Some r -> (
        match Multicast_tree.of_edges sp (Multicast_tree.edges r.Mcph.tree) with
        | Error e -> Error ("residual tree invalid at true costs: " ^ e)
        | Ok tree ->
          let sparse occ =
            List.filter_map
              (fun v ->
                let o = occ tree v in
                if Rat.sign o > 0 then Some (v, o) else None)
              (List.init n Fun.id)
          in
          Ok
            {
              pl_tree = tree;
              pl_send = sparse Multicast_tree.send_occupation;
              pl_recv = sparse Multicast_tree.recv_occupation;
              pl_lb = lb.Formulations.throughput;
              pl_basis = basis;
            })))

(* Largest admissible rate of a plan against the given residuals. *)
let plan_ymax pl ~free_send ~free_recv =
  let fold free acc l =
    List.fold_left
      (fun acc (v, o) ->
        let m = Rat.div (Rat.max Rat.zero free.(v)) o in
        match acc with None -> Some m | Some b -> Some (Rat.min b m))
      acc l
  in
  match fold free_send (fold free_recv None pl.pl_recv) pl.pl_send with
  | None -> Rat.zero
  | Some m -> Rat.max Rat.zero m

(* --- live-session state ------------------------------------------------ *)

type live = {
  l_sess : Session.t;
  mutable l_tree : Multicast_tree.t option;  (* None while suspended *)
  mutable l_send : (int * Rat.t) list;
  mutable l_recv : (int * Rat.t) list;
  mutable l_rate : Rat.t;
  mutable l_admitted : Rat.t;
  mutable l_min_rate : Rat.t;
  mutable l_lb : float;
  mutable l_replans : int;
  mutable l_degraded_epochs : int;
  mutable l_epochs_live : int;  (* epochs this session has been live, for burn rates *)
  mutable l_burn_epochs : int;
      (* epochs spent below [slo_retention * admitted] at the epoch
         boundary — suspended epochs included, unlike
         [l_degraded_epochs], which counts degrade *actions* *)
  mutable l_release : int;
      (* the global release counter at the last plan: a hungry session
         re-plans only when capacity has been released since *)
  mutable l_sched : Schedule.t option;
}

let registry_key (s : Session.t) = Printf.sprintf "session:%d" s.Session.id

let percentile sorted q =
  match Array.length sorted with
  | 0 -> 0.0
  | n -> sorted.(min (n - 1) (int_of_float (Float.of_int (n - 1) *. q +. 0.5)))

(* --- the rolling-horizon loop ------------------------------------------ *)

let run ?(now = Unix.gettimeofday) ?(config = default_config) ?(faults = []) ?telemetry
    ?(slo_enforce = false) (p : Platform.t) sessions ~horizon =
  let ( let* ) = Result.bind in
  let* () = validate_config config in
  let* () = if Rat.sign horizon > 0 then Ok () else Error "horizon must be positive" in
  let* () = Workload.validate p sessions in
  let* () = Fault.validate p faults in
  Trace.with_span ~cat:"session" "session.run" @@ fun () ->
  let n = Platform.n_nodes p in
  let send_tot = Array.make n Rat.zero and recv_tot = Array.make n Rat.zero in
  (* Bumped whenever port capacity is released (a departure, preemption,
     degrade, suspension, shrink or damage change). A session running
     below demand took everything its bottleneck offered at plan time,
     so until some capacity is released a re-plan cannot help it — this
     counter is what lets [`Incremental] skip those re-plans. *)
  let release_version = ref 0 in
  let bump_release () = incr release_version in
  let live : (int, live) Hashtbl.t = Hashtbl.create 64 in
  (* SLO machinery. The sink (and the objectives it evaluates) is a pure
     observer: it consumes values the planner already computed, on epoch
     boundaries only, and nothing below reads it back — so sampling
     cannot perturb the decision digest (pinned by a seeded test).
     Enforcement is separate and explicit: [slo_enforce] changes re-plan
     apply order and victim preference using the per-session burn rate. *)
  (* Per-session error budget: a session may spend at most
     [1 - slo_retention] of its lifetime degraded; its burn rate is the
     degraded-epoch fraction over that budget (SRE burn-rate form, same
     math as {!Slo} but per session and over the whole lifetime). *)
  let session_budget = 1.0 -. slo_retention in
  let burn_of l =
    if l.l_epochs_live = 0 then 0.0
    else float_of_int l.l_burn_epochs /. float_of_int l.l_epochs_live /. session_budget
  in
  let burning l = burn_of l >= 1.0 in
  let records = ref [] in
  let epochs = ref [] in
  let schedules = ref [] in
  let degradations = ref 0 and suspensions = ref 0 in
  let total_replans = ref 0 and total_skipped = ref 0 in
  let admitted = ref 0 and rejected = ref 0 and preempted = ref 0 and completed = ref 0 in
  let peak_active = ref 0 in
  let max_port = ref Rat.zero in
  let planner_seconds = ref 0.0 in
  (* Any stale basis under this run's keys (e.g. a previous run over the
     same workload) only changes pivot counts, never results; dropping
     them keeps runs fully independent. *)
  List.iter (fun s -> Warm_registry.remove (registry_key s)) sessions;
  let contribution rate l = List.map (fun (v, o) -> (v, Rat.mul rate o)) l in
  let apply_occ sign rate l tot =
    List.iter
      (fun (v, d) ->
        tot.(v) <- (if sign > 0 then Rat.add tot.(v) d else Rat.sub tot.(v) d))
      (contribution rate l)
  in
  let free_of tot = Array.init n (fun v -> Rat.sub Rat.one tot.(v)) in
  (* Residuals as one live session sees them: global free plus its own
     contribution. *)
  let free_excluding l =
    let fs = free_of send_tot and fr = free_of recv_tot in
    List.iter (fun (v, d) -> fs.(v) <- Rat.add fs.(v) d) (contribution l.l_rate l.l_send);
    List.iter (fun (v, d) -> fr.(v) <- Rat.add fr.(v) d) (contribution l.l_rate l.l_recv);
    (fs, fr)
  in
  let record_port_peak () =
    Array.iter (fun o -> if Rat.(o > !max_port) then max_port := o) send_tot;
    Array.iter (fun o -> if Rat.(o > !max_port) then max_port := o) recv_tot
  in
  let adopt_schedule ~epoch_idx l =
    match l.l_tree with
    | Some tree when Rat.sign l.l_rate > 0 ->
      let sched = Schedule.of_tree_set (Tree_set.make [ (tree, l.l_rate) ]) in
      (match Schedule.check sched with
      | Ok () -> ()
      | Error e ->
        invalid_arg
          (Printf.sprintf "Horizon: session %d adopted an invalid schedule: %s"
             l.l_sess.Session.id e));
      l.l_sched <- Some sched;
      schedules := (epoch_idx, l.l_sess.Session.id, sched) :: !schedules
    | _ -> l.l_sched <- None
  in
  (* Install a plan at an exact rate: swap the occupation contribution,
     persist the LP basis, and release-stamp. If any port's contribution
     shrank, capacity was freed — wake the hungry sessions. *)
  let install ~epoch_idx l pl rate =
    let freed =
      let shrank old_rate old_l new_l =
        List.exists
          (fun (v, o) ->
            let now =
              match List.assoc_opt v new_l with
              | Some o' -> Rat.mul rate o'
              | None -> Rat.zero
            in
            Rat.(now < Rat.mul old_rate o))
          old_l
      in
      shrank l.l_rate l.l_send pl.pl_send || shrank l.l_rate l.l_recv pl.pl_recv
    in
    apply_occ (-1) l.l_rate l.l_send send_tot;
    apply_occ (-1) l.l_rate l.l_recv recv_tot;
    l.l_tree <- Some pl.pl_tree;
    l.l_send <- pl.pl_send;
    l.l_recv <- pl.pl_recv;
    l.l_rate <- rate;
    l.l_lb <- pl.pl_lb;
    apply_occ 1 rate l.l_send send_tot;
    apply_occ 1 rate l.l_recv recv_tot;
    l.l_min_rate <- Rat.min l.l_min_rate rate;
    (match pl.pl_basis with
    | Some b -> Warm_registry.store (registry_key l.l_sess) b
    | None -> ());
    if freed then bump_release ();
    l.l_release <- !release_version;
    adopt_schedule ~epoch_idx l;
    record_port_peak ()
  in
  let suspend l =
    apply_occ (-1) l.l_rate l.l_send send_tot;
    apply_occ (-1) l.l_rate l.l_recv recv_tot;
    if Rat.sign l.l_rate > 0 then bump_release ();
    l.l_tree <- None;
    l.l_send <- [];
    l.l_recv <- [];
    l.l_rate <- Rat.zero;
    l.l_min_rate <- Rat.zero;
    l.l_release <- !release_version;
    l.l_sched <- None;
    incr suspensions;
    Metrics.incr m_suspended
  in
  let finish outcome l =
    apply_occ (-1) l.l_rate l.l_send send_tot;
    apply_occ (-1) l.l_rate l.l_recv recv_tot;
    if Rat.sign l.l_rate > 0 then bump_release ();
    Warm_registry.remove (registry_key l.l_sess);
    Hashtbl.remove live l.l_sess.Session.id;
    let slo_ok =
      Rat.to_float l.l_min_rate
      >= (slo_retention *. Rat.to_float l.l_admitted) -. 1e-12
    in
    records :=
      {
        sr_session = l.l_sess;
        sr_outcome = outcome;
        sr_admitted_rate = l.l_admitted;
        sr_final_rate = l.l_rate;
        sr_min_rate = l.l_min_rate;
        sr_lb = l.l_lb;
        sr_replans = l.l_replans;
        sr_degraded_epochs = l.l_degraded_epochs;
        sr_burn_epochs = l.l_burn_epochs;
        sr_slo_ok = slo_ok;
      }
      :: !records
  in
  let reject (s : Session.t) =
    records :=
      {
        sr_session = s;
        sr_outcome = Rejected;
        sr_admitted_rate = Rat.zero;
        sr_final_rate = Rat.zero;
        sr_min_rate = Rat.zero;
        sr_lb = 0.0;
        sr_replans = 0;
        sr_degraded_epochs = 0;
        sr_burn_epochs = 0;
        sr_slo_ok = false;
      }
      :: !records
  in
  let dmg_ref = ref Repair.no_damage in
  let pd_ref = ref p in
  (* The damage-restricted carrier platform sessions plan on. Every
     active non-source node is kept as a nominal target so
     Repair.apply_damage never trips over the base platform's roles;
     sessions re-role it via Session.platform_for anyway. *)
  let damaged_view dmg =
    let all =
      List.filter (fun v -> v <> p.Platform.source) (Platform.active_nodes p)
    in
    Repair.apply_damage (Platform.with_targets p all) dmg
  in
  let pending = ref sessions in
  let n_epochs = rat_ceil_div horizon config.epoch in
  let failure = ref None in
  (try
     for i = 1 to n_epochs do
       if !failure = None then begin
         let t = Rat.mul (Rat.of_int i) config.epoch in
         let t0 = now () in
         let ep_adm = ref 0 and ep_rej = ref 0 and ep_pre = ref 0 in
         let ep_deg = ref 0 and ep_sus = ref 0 and ep_rpl = ref 0 and ep_skip = ref 0 in
         Trace.with_span ~cat:"session" "session.epoch"
           ~result:(fun () ->
             [ ("epoch", Trace.Int i); ("replans", Trace.Int !ep_rpl) ])
         @@ fun () ->
         (* 1. departures *)
         let departed =
           Hashtbl.fold
             (fun _ l acc -> if Rat.(l.l_sess.Session.departure <= t) then l :: acc else acc)
             live []
         in
         List.iter
           (fun l ->
             incr completed;
             Metrics.incr m_completed;
             finish Completed l)
           (List.sort (fun a b -> compare a.l_sess.Session.id b.l_sess.Session.id) departed);
         (* 2. damage state *)
         let dmg = Fault.damage_at faults ~at:t in
         if not (Repair.damage_equal dmg !dmg_ref) then begin
           (match damaged_view dmg with
           | Ok pd -> pd_ref := pd
           | Error e -> failure := Some ("epoch damage: " ^ e));
           dmg_ref := dmg;
           (* any damage change can open capacity somewhere (heals do
              directly; kills force re-plans that free old ports) *)
           bump_release ()
         end;
         let pd = !pd_ref in
         if !failure = None then begin
           (* 3. choose the re-plan set *)
           let tree_broken l =
             match l.l_tree with
             | None -> true
             | Some tree ->
               List.exists
                 (fun (u, v) ->
                   (not (Platform.is_active pd u))
                   || (not (Platform.is_active pd v))
                   || not (Digraph.mem_edge pd.Platform.graph ~src:u ~dst:v))
                 (Multicast_tree.edges tree)
           in
           let all_live =
             List.sort
               (fun a b -> compare a.l_sess.Session.id b.l_sess.Session.id)
               (Hashtbl.fold (fun _ l acc -> l :: acc) live [])
           in
           (* A session at full demand with an intact tree needs nothing:
              the exact invariant keeps its plan feasible whatever the
              others do. A hungry one (below demand, or suspended) took
              everything its bottleneck offered at plan time, so it can
              only gain after a release. *)
           (* a suspended session (no tree) is merely hungry — it already
              failed to plan at the current state, so only a release can
              change its answer; a live tree hit by damage MUST re-plan *)
           let tree_damaged l = l.l_tree <> None && tree_broken l in
           let replan_set =
             match config.replan_mode with
             | `Cold -> all_live
             | `Incremental ->
               List.filter
                 (fun l ->
                   tree_damaged l
                   || Rat.(l.l_rate < l.l_sess.Session.demand)
                      && l.l_release <> !release_version)
                 all_live
           in
           ep_skip := List.length all_live - List.length replan_set;
           total_skipped := !total_skipped + !ep_skip;
           Metrics.add m_skipped !ep_skip;
           (* 4. re-plan in parallel against a consistent snapshot, apply
              sequentially in id order against live residuals. *)
           let chain = config.replan_mode = `Incremental in
           let tasks =
             List.map
               (fun l ->
                 let fs, fr = free_excluding l in
                 let warm =
                   if chain then Warm_registry.find (registry_key l.l_sess) else None
                 in
                 (l, fs, fr, warm))
               replan_set
           in
           let results =
             Pool.map ~jobs:config.jobs
               (fun (l, fs, fr, warm) ->
                 plan_session ~chain pd l.l_sess ~free_send:fs ~free_recv:fr ~warm)
               tasks
           in
           (* Enforcement lever 1: apply order. Plans were computed from
              one consistent snapshot (the Pool results above are
              order-independent), but they are priced and installed
              sequentially against live residuals — so whoever applies
              first captures freed capacity. Under enforcement, sessions
              burning their error budget apply first (worst burn first,
              id as the deterministic tie-break); admission decisions
              happen later against the resulting totals, and the S1
              bench shape-checks that they are unchanged. *)
           let pairs = List.combine tasks results in
           let pairs =
             if not slo_enforce then pairs
             else
               List.stable_sort
                 (fun ((a, _, _, _), _) ((b, _, _, _), _) ->
                   match Float.compare (burn_of b) (burn_of a) with
                   | 0 -> compare a.l_sess.Session.id b.l_sess.Session.id
                   | c -> c)
                 pairs
           in
           List.iter
             (fun ((l, _, _, _), result) ->
               incr ep_rpl;
               incr total_replans;
               l.l_replans <- l.l_replans + 1;
               Metrics.incr m_replans;
               let broken = tree_broken l in
               let refresh pl =
                 l.l_release <- !release_version;
                 l.l_lb <- pl.pl_lb;
                 match pl.pl_basis with
                 | Some b -> Warm_registry.store (registry_key l.l_sess) b
                 | None -> ()
               in
               (* The candidate actually adopted: a working tree is never
                  abandoned unless the new one admits a strictly higher
                  rate — MCPH optimizes a heuristic proxy, so its fresh
                  tree can be worse than the incumbent at current
                  residuals, and chasing it would shrink sessions that
                  did nothing wrong. This also keeps [`Cold] re-plans
                  from drifting: with equal residuals they adopt exactly
                  what [`Incremental] kept. *)
               let outcome =
                 match result with
                 | Error e when broken -> Error e
                 | Error _ -> Ok None  (* incumbent stands *)
                 | Ok pl -> (
                   let fs, fr = free_excluding l in
                   let cap y = quantize_rate (Rat.min l.l_sess.Session.demand y) in
                   let rate_new = cap (plan_ymax pl ~free_send:fs ~free_recv:fr) in
                   let rate_old =
                     if broken then Rat.zero
                     else
                       cap
                         (plan_ymax
                            { pl with pl_send = l.l_send; pl_recv = l.l_recv }
                            ~free_send:fs ~free_recv:fr)
                   in
                   if (not broken) && Rat.(rate_old >= rate_new) then
                     if Rat.equal rate_old l.l_rate then Ok (Some (pl, None))
                     else
                       (* grow in place on the incumbent tree *)
                       Ok
                         (Some
                            ( pl,
                              Some
                                ( {
                                    pl with
                                    pl_tree = Option.get l.l_tree;
                                    pl_send = l.l_send;
                                    pl_recv = l.l_recv;
                                  },
                                  rate_old ) ))
                   else if Rat.sign rate_new > 0 then Ok (Some (pl, Some (pl, rate_new)))
                   else Error "no admissible rate on the re-planned tree")
               in
               (match outcome with
               | Error _ ->
                 if Rat.sign l.l_rate > 0 || l.l_tree <> None then suspend l
                 else l.l_release <- !release_version;
                 incr ep_sus
               | Ok None ->
                 (* plan failed but the incumbent tree still works: keep
                    it and wait for the next release *)
                 l.l_release <- !release_version
               | Ok (Some (pl, change)) ->
                 (match change with
                 | None -> refresh pl
                 | Some (adopted, rate) ->
                   install ~epoch_idx:i l adopted rate;
                   l.l_lb <- pl.pl_lb);
                 if
                   Rat.to_float l.l_rate
                   < (slo_retention *. Rat.to_float l.l_admitted) -. 1e-12
                 then begin
                   l.l_degraded_epochs <- l.l_degraded_epochs + 1;
                   incr ep_deg
                 end))
             pairs;
           (* 5. admission control over this epoch's arrivals *)
           let arrivals, later =
             List.partition (fun (s : Session.t) -> Rat.(s.Session.arrival <= t)) !pending
           in
           pending := later;
           let arrivals =
             List.filter
               (fun (s : Session.t) ->
                 if Rat.(s.Session.departure <= t) then begin
                   (* arrived and departed within one epoch: never planned *)
                   reject s;
                   incr rejected;
                   incr ep_rej;
                   Metrics.incr m_rejected;
                   false
                 end
                 else true)
               arrivals
           in
           let arrivals = List.sort Session.admission_order arrivals in
           List.iter
             (fun (s : Session.t) ->
               if !failure = None then begin
                 let fits rate =
                   Rat.to_float rate
                   >= (admit_floor *. Rat.to_float s.Session.demand) -. 1e-12
                 in
                 (* dry-run ladder state: residual copies plus an undo-free
                    action log, committed only when the arrival fits *)
                 let fs = free_of send_tot and fr = free_of recv_tot in
                 let warm = ref None in
                 let attempt () =
                   match plan_session ~chain:true pd s ~free_send:fs ~free_recv:fr ~warm:!warm with
                   | Error _ -> None
                   | Ok pl ->
                     (match pl.pl_basis with Some b -> warm := Some b | None -> ());
                     let rate =
                       quantize_rate
                         (Rat.min s.Session.demand (plan_ymax pl ~free_send:fs ~free_recv:fr))
                     in
                     if Rat.sign rate > 0 && fits rate then Some (pl, rate) else None
                 in
                 let commit_admit pl rate degrades preempts =
                   (* replay the ladder's actions on the real state *)
                   List.iter
                     (fun (victim, new_rate) ->
                       (match victim.l_tree with
                       | Some _ ->
                         apply_occ (-1) victim.l_rate victim.l_send send_tot;
                         apply_occ (-1) victim.l_rate victim.l_recv recv_tot;
                         victim.l_rate <- new_rate;
                         victim.l_min_rate <- Rat.min victim.l_min_rate new_rate;
                         apply_occ 1 new_rate victim.l_send send_tot;
                         apply_occ 1 new_rate victim.l_recv recv_tot;
                         bump_release ();
                         adopt_schedule ~epoch_idx:i victim
                       | None -> ());
                       victim.l_degraded_epochs <- victim.l_degraded_epochs + 1;
                       incr degradations;
                       incr ep_deg;
                       Metrics.incr m_degraded)
                     degrades;
                   List.iter
                     (fun victim ->
                       incr preempted;
                       incr ep_pre;
                       Metrics.incr m_preempted;
                       finish Preempted victim)
                     preempts;
                   let l =
                     {
                       l_sess = s;
                       l_tree = None;
                       l_send = [];
                       l_recv = [];
                       l_rate = Rat.zero;
                       l_admitted = rate;
                       l_min_rate = rate;
                       l_lb = pl.pl_lb;
                       l_replans = 0;
                       l_degraded_epochs = 0;
                       l_epochs_live = 0;
                       l_burn_epochs = 0;
                       l_release = !release_version;
                       l_sched = None;
                     }
                   in
                   Hashtbl.replace live s.Session.id l;
                   install ~epoch_idx:i l pl rate;
                   incr admitted;
                   incr ep_adm;
                   Metrics.incr m_admitted
                 in
                 match attempt () with
                 | Some (pl, rate) -> commit_admit pl rate [] []
                 | None ->
                   (* preempt/degrade lowest-priority sessions first *)
                   let victims =
                     List.filter
                       (fun l ->
                         l.l_sess.Session.priority < s.Session.priority
                         && Rat.sign l.l_rate > 0)
                       (Hashtbl.fold (fun _ l acc -> l :: acc) live [])
                   in
                   (* Enforcement lever 2: within a priority class,
                      victims already burning their budget are degraded
                      first — their budget is sunk cost, so charging
                      them keeps a slack-rich peer inside its SLO
                      instead of starting a fresh breach. (The naive
                      opposite — sparing the burning — measurably burns
                      more total budget: the spared session is often
                      unroutable after a fault, so protecting it just
                      degrades healthy peers for nothing.) Off, the
                      PR 9 ordering is unchanged. *)
                   let victims =
                     List.sort
                       (fun a b ->
                         match compare a.l_sess.Session.priority b.l_sess.Session.priority with
                         | 0 -> (
                           match
                             if slo_enforce then compare (burning b) (burning a) else 0
                           with
                           | 0 -> (
                             match
                               Rat.compare b.l_sess.Session.arrival a.l_sess.Session.arrival
                             with
                             | 0 -> compare b.l_sess.Session.id a.l_sess.Session.id
                             | c -> c)
                           | c -> c)
                         | c -> c)
                       victims
                   in
                   let release rate l =
                     List.iter
                       (fun (v, d) -> fs.(v) <- Rat.add fs.(v) d)
                       (contribution rate l.l_send);
                     List.iter
                       (fun (v, d) -> fr.(v) <- Rat.add fr.(v) d)
                       (contribution rate l.l_recv)
                   in
                   let rec ladder vs steps degrades preempts =
                     if steps >= max_preemptions then begin
                       incr rejected;
                       incr ep_rej;
                       Metrics.incr m_rejected;
                       reject s
                     end
                     else
                       match vs with
                       | [] ->
                         incr rejected;
                         incr ep_rej;
                         Metrics.incr m_rejected;
                         reject s
                       | v :: rest -> (
                         let floor_rate =
                           quantize_rate (Rat.mul degrade_floor v.l_sess.Session.demand)
                         in
                         let can_degrade =
                           Rat.sign v.l_rate > 0 && Rat.(floor_rate < v.l_rate)
                         in
                         if can_degrade then begin
                           release (Rat.sub v.l_rate floor_rate) v;
                           match attempt () with
                           | Some (pl, rate) ->
                             commit_admit pl rate ((v, floor_rate) :: degrades) preempts
                           | None ->
                             (* degrading was not enough: preempt outright *)
                             release floor_rate v;
                             (match attempt () with
                             | Some (pl, rate) ->
                               commit_admit pl rate degrades (v :: preempts)
                             | None -> ladder rest (steps + 1) degrades (v :: preempts))
                         end
                         else begin
                           release v.l_rate v;
                           match attempt () with
                           | Some (pl, rate) -> commit_admit pl rate degrades (v :: preempts)
                           | None -> ladder rest (steps + 1) degrades (v :: preempts)
                         end)
                   in
                   if victims = [] then begin
                     incr rejected;
                     incr ep_rej;
                     Metrics.incr m_rejected;
                     reject s
                   end
                   else ladder victims 0 [] []
               end)
             arrivals;
           let active = Hashtbl.length live in
           peak_active := max !peak_active active;
           Metrics.set_gauge m_active (float_of_int active);
           record_port_peak ();
           let dt = now () -. t0 in
           planner_seconds := !planner_seconds +. dt;
           Metrics.observe m_epoch_seconds dt;
           let port_now =
             Array.fold_left Rat.max
               (Array.fold_left Rat.max Rat.zero send_tot)
               recv_tot
           in
           (* lifetime accounting for burn rates: every session live at
              this epoch boundary has lived one more epoch, and one spent
              below its retention floor — suspension included — burns
              error budget *)
           Hashtbl.iter
             (fun _ l ->
               l.l_epochs_live <- l.l_epochs_live + 1;
               if
                 Rat.sign l.l_admitted > 0
                 && Rat.to_float l.l_rate
                    < (slo_retention *. Rat.to_float l.l_admitted) -. 1e-12
               then l.l_burn_epochs <- l.l_burn_epochs + 1)
             live;
           (* Epoch-boundary sampling: throughput, admissions, port
              headroom and the worst per-session retention/delivered
              fraction. All values are reads of state already computed
              above. *)
           (match telemetry with
           | None -> ()
           | Some sink ->
             let tf = Rat.to_float t in
             let throughput =
               Hashtbl.fold (fun _ l acc -> acc +. Rat.to_float l.l_rate) live 0.0
             in
             let fold_min f =
               Hashtbl.fold
                 (fun _ l acc ->
                   match f l with Some v -> Float.min acc v | None -> acc)
                 live 1.0
             in
             let retention_min =
               fold_min (fun l ->
                   if Rat.sign l.l_admitted > 0 then
                     Some (Rat.to_float l.l_rate /. Rat.to_float l.l_admitted)
                   else None)
             in
             let delivered_min =
               fold_min (fun l ->
                   if Rat.sign l.l_sess.Session.demand > 0 then
                     Some (Rat.to_float l.l_rate /. Rat.to_float l.l_sess.Session.demand)
                   else None)
             in
             let samples =
               [
                 ("horizon.throughput", throughput);
                 ("horizon.active", float_of_int active);
                 ("horizon.admitted", float_of_int !ep_adm);
                 ("horizon.headroom", 1.0 -. Rat.to_float port_now);
                 ("session.retention", retention_min);
                 ("session.delivered_fraction", delivered_min);
               ]
             in
             List.iter (fun (name, v) -> Timeseries.sample sink name ~time:tf v) samples);
           epochs :=
             {
               ep_index = i;
               ep_time = t;
               ep_arrivals = List.length arrivals;
               ep_admitted = !ep_adm;
               ep_rejected = !ep_rej;
               ep_preempted = !ep_pre;
               ep_degraded = !ep_deg;
               ep_suspended = !ep_sus;
               ep_replans = !ep_rpl;
               ep_replans_skipped = !ep_skip;
               ep_active = active;
               ep_seconds = dt;
               ep_max_port = port_now;
             }
             :: !epochs
         end
       end
     done
   with Invalid_argument e -> failure := Some e);
  match !failure with
  | Some e -> Error e
  | None ->
    (* sessions still live at the horizon *)
    let still =
      List.sort
        (fun a b -> compare a.l_sess.Session.id b.l_sess.Session.id)
        (Hashtbl.fold (fun _ l acc -> l :: acc) live [])
    in
    List.iter (fun l -> finish Active l) still;
    let epoch_list = List.rev !epochs in
    let secs =
      Array.of_list (List.sort compare (List.map (fun e -> e.ep_seconds) epoch_list))
    in
    let session_list =
      List.sort
        (fun a b -> compare a.sr_session.Session.id b.sr_session.Session.id)
        !records
    in
    let gaps =
      List.filter_map
        (fun r ->
          if r.sr_lb > 0.0 && Rat.sign r.sr_final_rate > 0 then
            Some (Rat.to_float r.sr_final_rate /. r.sr_lb)
          else None)
        session_list
    in
    let mean_gap =
      match gaps with
      | [] -> 0.0
      | _ -> List.fold_left ( +. ) 0.0 gaps /. float_of_int (List.length gaps)
    in
    (* Worst instantaneous delivered fraction vs admitted rate over all
       non-rejected sessions: 1.0 means nobody was ever degraded below
       admission; 0 means some session was fully suspended at least
       once. Exposed as a last-write-wins gauge for the regression gate. *)
    let min_df =
      List.fold_left
        (fun acc r ->
          if r.sr_outcome <> Rejected && Rat.sign r.sr_admitted_rate > 0 then
            Float.min acc (Rat.to_float r.sr_min_rate /. Rat.to_float r.sr_admitted_rate)
          else acc)
        1.0 session_list
    in
    Metrics.set_gauge m_df_min min_df;
    Ok
      {
        hz_epochs = epoch_list;
        hz_sessions = session_list;
        hz_admitted = !admitted;
        hz_rejected = !rejected;
        hz_preempted = !preempted;
        hz_completed = !completed;
        hz_degradations = !degradations;
        hz_suspensions = !suspensions;
        hz_replans = !total_replans;
        hz_replans_skipped = !total_skipped;
        hz_slo_violations =
          List.length
            (List.filter
               (fun r -> r.sr_outcome <> Rejected && not r.sr_slo_ok)
               session_list);
        hz_peak_active = !peak_active;
        hz_planner_seconds = !planner_seconds;
        hz_p50_epoch_seconds = percentile secs 0.5;
        hz_p99_epoch_seconds = percentile secs 0.99;
        hz_max_port_occupation = !max_port;
        hz_admitted_rate_sum =
          List.fold_left
            (fun a r -> a +. Rat.to_float r.sr_admitted_rate)
            0.0 session_list;
        hz_mean_lb_gap = mean_gap;
        hz_schedules = List.rev !schedules;
        hz_min_delivered_fraction = min_df;
      }

(* --- rendering and digests --------------------------------------------- *)

let digest rep =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "e%d@%s:a%d,r%d,p%d,d%d,s%d,rp%d,sk%d,act%d,max%s\n" e.ep_index
           (Rat.to_string e.ep_time) e.ep_admitted e.ep_rejected e.ep_preempted
           e.ep_degraded e.ep_suspended e.ep_replans e.ep_replans_skipped e.ep_active
           (Rat.to_string e.ep_max_port)))
    rep.hz_epochs;
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "s%d:%s,adm%s,fin%s,min%s,rp%d,deg%d,slo%b\n"
           r.sr_session.Session.id (outcome_name r.sr_outcome)
           (Rat.to_string r.sr_admitted_rate)
           (Rat.to_string r.sr_final_rate)
           (Rat.to_string r.sr_min_rate) r.sr_replans r.sr_degraded_epochs r.sr_slo_ok))
    rep.hz_sessions;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pp_report fmt rep =
  let offered = List.length rep.hz_sessions in
  Format.fprintf fmt "sessions: %d offered, %d admitted, %d rejected, %d preempted@,"
    offered rep.hz_admitted rep.hz_rejected rep.hz_preempted;
  Format.fprintf fmt "churn: %d completed, peak %d concurrent@," rep.hz_completed
    rep.hz_peak_active;
  Format.fprintf fmt "re-plans: %d executed, %d skipped (residual unchanged)@,"
    rep.hz_replans rep.hz_replans_skipped;
  Format.fprintf fmt "pressure: %d degradations, %d suspensions, %d SLO violations@,"
    rep.hz_degradations rep.hz_suspensions rep.hz_slo_violations;
  Format.fprintf fmt "capacity: peak port occupation %s (must stay <= 1)@,"
    (Rat.to_string rep.hz_max_port_occupation);
  Format.fprintf fmt "admitted demand: %.3f msg/unit; mean rate/LB gap %.3f@,"
    rep.hz_admitted_rate_sum rep.hz_mean_lb_gap;
  Format.fprintf fmt
    "planner: %.3fs total, epoch p50 %.4fs, p99 %.4fs, %.1f sessions admitted/s"
    rep.hz_planner_seconds rep.hz_p50_epoch_seconds rep.hz_p99_epoch_seconds
    (if rep.hz_planner_seconds > 0.0 then
       float_of_int rep.hz_admitted /. rep.hz_planner_seconds
     else 0.0)
