(* Differential test of the replay kernel. [Reference] is the replay as it
   stood before the period pattern was sorted once and the walk moved to
   pair ids, message units and a per-edge fault index: it unrolls and sorts
   every period copy, keys progress by (tree, src, dst), and asks the
   per-edge fault predicates [Fault_reference.edge_dead] and
   [Fault_reference.slowdown] for every interval. Over a seeded sweep of
   platforms, schedules, time-varying scenarios and hand-corrupted
   schedules, Event_sim must return structurally equal results and equal
   error strings. *)

module Reference = struct
  type event = {
    e_src : int;
    e_dst : int;
    e_tree : int;
    e_start : Rat.t;
    e_finish : Rat.t;
  }

  let unroll (sched : Schedule.t) ~periods =
    let trees = sched.Schedule.trees in
    let depth_of tree v = Out_tree.depth tree.Multicast_tree.tree v in
    let events = ref [] in
    List.iter
      (fun (tr : Schedule.transfer) ->
        let d = depth_of trees.(tr.Schedule.tree) tr.Schedule.src in
        for p = d to periods - 1 do
          let offset = Rat.mul (Rat.of_int p) sched.Schedule.period in
          events :=
            {
              e_src = tr.Schedule.src;
              e_dst = tr.Schedule.dst;
              e_tree = tr.Schedule.tree;
              e_start = Rat.add offset tr.Schedule.start;
              e_finish = Rat.add offset tr.Schedule.finish;
            }
            :: !events
        done)
      sched.Schedule.transfers;
    List.sort
      (fun a b ->
        let c = Rat.compare a.e_start b.e_start in
        if c <> 0 then c else Rat.compare a.e_finish b.e_finish)
      !events

  let floor_int q =
    let quot, _ = Zint.ediv_rem (Rat.num q) (Rat.den q) in
    Option.value ~default:max_int (Zint.to_int quot)

  type reception = {
    r_tree : int;
    r_src : int;
    r_dst : int;
    r_msg : int;
    r_begin : Rat.t;
    r_complete : Rat.t;
  }

  let walk (sched : Schedule.t) events ~factor =
    let g = sched.Schedule.trees.(0).Multicast_tree.platform.Platform.graph in
    let progress = Hashtbl.create 64 in
    let receptions = ref [] and in_flight = ref [] in
    List.iter
      (fun e ->
        match factor e with
        | None -> ()
        | Some f ->
          let key = (e.e_tree, e.e_src, e.e_dst) in
          let before = Option.value ~default:Rat.zero (Hashtbl.find_opt progress key) in
          let healthy = Rat.equal f Rat.one in
          let span = Rat.sub e.e_finish e.e_start in
          let after = Rat.add before (if healthy then span else Rat.div span f) in
          Hashtbl.replace progress key after;
          let c = Digraph.cost g ~src:e.e_src ~dst:e.e_dst in
          let first = floor_int (Rat.div before c) in
          in_flight := (e, first) :: !in_flight;
          let rec record msg t_begin =
            let completion = Rat.mul (Rat.of_int (msg + 1)) c in
            if Rat.(completion <= after) then begin
              let elapsed = Rat.sub completion before in
              let t_complete =
                Rat.add e.e_start (if healthy then elapsed else Rat.mul f elapsed)
              in
              receptions :=
                {
                  r_tree = e.e_tree;
                  r_src = e.e_src;
                  r_dst = e.e_dst;
                  r_msg = msg;
                  r_begin = t_begin;
                  r_complete = t_complete;
                }
                :: !receptions;
              record (msg + 1) t_complete
            end
          in
          record first e.e_start)
      events;
    (List.rev !receptions, List.rev !in_flight)

  let root_of (sched : Schedule.t) k =
    sched.Schedule.trees.(k).Multicast_tree.platform.Platform.source

  let tree_targets (sched : Schedule.t) k =
    sched.Schedule.trees.(k).Multicast_tree.platform.Platform.targets

  let owed (sched : Schedule.t) ~periods k t =
    let tree = sched.Schedule.trees.(k).Multicast_tree.tree in
    if Out_tree.mem tree t then
      max 0 ((periods - Out_tree.depth tree t) * sched.Schedule.per_tree_messages.(k))
    else 0

  let complete_instances (sched : Schedule.t) deliveries =
    let count = Hashtbl.create 64 in
    List.iter
      (fun (k, m, time) ->
        let cnt, latest =
          Option.value ~default:(0, Rat.zero) (Hashtbl.find_opt count (k, m))
        in
        Hashtbl.replace count (k, m) (cnt + 1, Rat.max latest time))
      deliveries;
    Hashtbl.fold
      (fun (k, m) (cnt, latest) acc ->
        if cnt = List.length (tree_targets sched k) then (k, m, latest) :: acc else acc)
      count []

  let steady_rate (sched : Schedule.t) ~periods complete =
    let warm = Schedule.init_periods sched + 1 in
    let win_start = Rat.mul (Rat.of_int warm) sched.Schedule.period in
    let win_periods = periods - warm - 1 in
    let win_end =
      Rat.add win_start (Rat.mul (Rat.of_int win_periods) sched.Schedule.period)
    in
    let in_window =
      List.length
        (List.filter (fun (_, _, t) -> Rat.(win_start <= t) && Rat.(t < win_end)) complete)
    in
    if win_periods > 0 then
      float_of_int in_window /. Rat.to_float (Rat.sub win_end win_start)
    else 0.0

  let run (sched : Schedule.t) ~periods : (Event_sim.stats, string) result =
    let trees = sched.Schedule.trees in
    let n = Platform.n_nodes trees.(0).Multicast_tree.platform in
    let events = unroll sched ~periods in
    let busy_send = Array.make n Rat.zero and busy_recv = Array.make n Rat.zero in
    let exclusivity_ok =
      List.for_all
        (fun e ->
          let ok =
            Rat.(busy_send.(e.e_src) <= e.e_start) && Rat.(busy_recv.(e.e_dst) <= e.e_start)
          in
          busy_send.(e.e_src) <- Rat.max busy_send.(e.e_src) e.e_finish;
          busy_recv.(e.e_dst) <- Rat.max busy_recv.(e.e_dst) e.e_finish;
          ok)
        events
    in
    if not exclusivity_ok then Error "one-port violation: overlapping transfers on a port"
    else begin
      let receptions, in_flight = walk sched events ~factor:(fun _ -> Some Rat.one) in
      let recv_time = Array.init (Array.length trees) (fun _ -> Array.make n []) in
      List.iter
        (fun r ->
          recv_time.(r.r_tree).(r.r_dst) <-
            (r.r_msg, r.r_complete) :: recv_time.(r.r_tree).(r.r_dst))
        receptions;
      let causality_violation =
        List.find_map
          (fun (e, msg) ->
            if e.e_src = root_of sched e.e_tree then None
            else
              match List.assoc_opt msg recv_time.(e.e_tree).(e.e_src) with
              | Some t when Rat.(t <= e.e_start) -> None
              | Some t ->
                Some
                  (Printf.sprintf
                     "node %d forwards tree-%d message %d at %s before receiving it at %s"
                     e.e_src e.e_tree msg (Rat.to_string e.e_start) (Rat.to_string t))
              | None ->
                Some
                  (Printf.sprintf "node %d forwards tree-%d message %d it never receives"
                     e.e_src e.e_tree msg))
          in_flight
      in
      match causality_violation with
      | Some msg -> Error msg
      | None -> (
        let target_violation k t =
          if not (Out_tree.mem trees.(k).Multicast_tree.tree t) then
            Some (Printf.sprintf "tree %d does not span target %d" k t)
          else begin
            let due = owed sched ~periods k t in
            let seen = Array.make (max due 1) 0 in
            List.iter
              (fun (msg, _) -> if msg >= 0 && msg < due then seen.(msg) <- seen.(msg) + 1)
              recv_time.(k).(t);
            Seq.find_map
              (fun m ->
                if seen.(m) = 0 then
                  Some
                    (Printf.sprintf
                       "dropped delivery: tree-%d message %d never reaches target %d" k m t)
                else if seen.(m) > 1 then
                  Some
                    (Printf.sprintf
                       "duplicate delivery: tree-%d message %d reaches target %d %d times" k m
                       t seen.(m))
                else None)
              (Seq.init due Fun.id)
          end
        in
        let delivery_violation =
          Seq.find_map
            (fun k -> List.find_map (target_violation k) (tree_targets sched k))
            (Seq.init (Array.length trees) Fun.id)
        in
        match delivery_violation with
        | Some msg -> Error msg
        | None ->
          let deliveries = ref [] in
          Array.iteri
            (fun k per_node ->
              List.iter
                (fun t ->
                  List.iter
                    (fun (msg, time) ->
                      deliveries :=
                        { Event_sim.target = t; tree = k; message = msg; time } :: !deliveries)
                    per_node.(t))
                (tree_targets sched k))
            recv_time;
          let complete =
            complete_instances sched
              (List.map
                 (fun d -> (d.Event_sim.tree, d.Event_sim.message, d.Event_sim.time))
                 !deliveries)
          in
          let max_latency =
            List.fold_left
              (fun worst (k, msg, latest) ->
                let m_k = sched.Schedule.per_tree_messages.(k) in
                let emission = Rat.mul (Rat.of_int (msg / max m_k 1)) sched.Schedule.period in
                Float.max worst (Rat.to_float (Rat.sub latest emission)))
              0.0 complete
          in
          Ok
            {
              Event_sim.periods;
              messages_delivered = List.length !deliveries;
              measured_throughput = steady_rate sched ~periods complete;
              max_latency;
              deliveries = List.rev !deliveries;
            })
    end

  let run_with_faults (sched : Schedule.t) ~faults ~periods : Event_sim.fault_stats =
    let factor e =
      if Fault_reference.edge_dead faults ~src:e.e_src ~dst:e.e_dst ~at:e.e_start then None
      else Some (Fault_reference.slowdown faults ~src:e.e_src ~dst:e.e_dst ~at:e.e_start)
    in
    let receptions, _ = walk sched (unroll sched ~periods) ~factor in
    let sorted = List.sort (fun a b -> Rat.compare a.r_complete b.r_complete) receptions in
    let valid = Hashtbl.create 64 in
    List.iter
      (fun r ->
        let k = r.r_tree in
        let sender_ok =
          r.r_src = root_of sched k
          ||
          match Hashtbl.find_opt valid (k, r.r_src, r.r_msg) with
          | Some t -> Rat.(t <= r.r_begin)
          | None -> false
        in
        if sender_ok && not (Hashtbl.mem valid (k, r.r_dst, r.r_msg)) then
          Hashtbl.replace valid (k, r.r_dst, r.r_msg) r.r_complete)
      sorted;
    let delivered = ref [] and losses = ref [] in
    Array.iteri
      (fun k _ ->
        List.iter
          (fun t ->
            for m = 0 to owed sched ~periods k t - 1 do
              match Hashtbl.find_opt valid (k, t, m) with
              | Some time -> delivered := (k, m, time) :: !delivered
              | None ->
                losses :=
                  { Event_sim.l_tree = k; l_target = t; l_message = m } :: !losses
            done)
          (tree_targets sched k))
      sched.Schedule.trees;
    let complete = complete_instances sched !delivered in
    {
      Event_sim.f_periods = periods;
      f_delivered = List.length !delivered;
      f_losses = List.rev !losses;
      f_completed = List.length complete;
      f_measured_throughput = steady_rate sched ~periods complete;
    }
end

(* --- the sweep ----------------------------------------------------------- *)

let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let mcph_sched p =
  Option.map
    (fun r -> Schedule.of_tree_set (Tree_set.make [ (r.Mcph.tree, Rat.inv r.Mcph.period) ]))
    (Mcph.run p)

let tiers seed =
  Tiers.generate (Random.State.make [| seed; 6521 |]) Tiers.small_params ~n_targets:6

let random_platform seed =
  Generators.random_connected
    (Random.State.make [| seed; 6523 |])
    ~nodes:9 ~extra_edges:5 ~min_cost:1 ~max_cost:9 ~n_targets:3

(* The schedules under test, each named: MCPH single trees, Reduced-BC and
   Broadcast-EB packings into several trees, and scatter chains. *)
let schedules () =
  let named name = Option.map (fun s -> (name, s)) in
  let ok = function Ok (s, _) -> Some s | Error _ -> None in
  List.filter_map Fun.id
    (List.map
       (fun seed ->
         named (Printf.sprintf "reduced-bc tiers %d" seed)
           (let p = tiers seed in
            Option.bind (Reduced_broadcast.run ~max_tries_per_round:2 p) (fun r ->
                ok (Augmented_multicast.to_schedule p r))))
       [ 3; 11 ]
    @ List.map
        (fun seed ->
          named (Printf.sprintf "eb packing random %d" seed)
            (let p = random_platform seed in
             Option.bind (Formulations.broadcast_eb p) (fun sol ->
                 ok (Arborescence_packing.schedule_of_broadcast p sol))))
        [ 5; 9 ]
    @ [
       named "scatter two-relay"
         (let p = Paper_platforms.two_relay () in
          Option.bind (Formulations.multicast_ub p) (fun sol ->
              Result.to_option (Scatter_schedule.of_solution p sol)));
       named "scatter tiers 77"
         (let p = tiers 77 in
          Option.bind (Formulations.multicast_ub p) (fun sol ->
              Result.to_option (Scatter_schedule.of_solution p sol)));
     ]
    @ List.concat_map
        (fun seed ->
          [
            named (Printf.sprintf "mcph tiers %d" seed) (mcph_sched (tiers seed));
            named (Printf.sprintf "mcph random %d" seed) (mcph_sched (random_platform seed));
          ])
        [ 1; 2; 3 ])

(* Two relays that never receive forward at the same instant on disjoint
   ports: both intervals break causality, so which one the replay reports
   depends on the order of tied intervals. *)
let starved_relays () =
  let p = Paper_platforms.two_relay () in
  let t = Multicast_tree.of_edges_exn p [ (0, 1); (0, 2); (1, 3); (2, 4) ] in
  let sched = Schedule.of_tree_set (Tree_set.make [ (t, Rat.of_ints 1 2) ]) in
  let relay_sends =
    List.filter_map
      (fun (tr : Schedule.transfer) ->
        if tr.Schedule.src = 0 then None
        else Some { tr with Schedule.start = Rat.zero; finish = Rat.one })
      sched.Schedule.transfers
  in
  Schedule.with_transfers sched relay_sends

(* Hand corruptions of a schedule: a second copy of a transfer shifted by
   half its length (overlap on both its ports), a missing transfer, two
   transfers tied on (start, finish), a transfer stated twice, and a
   transfer moved to start at or after the period. *)
let corruptions rng (sched : Schedule.t) =
  let trs = Array.of_list sched.Schedule.transfers in
  let n = Array.length trs in
  let a = Random.State.int rng n and b = Random.State.int rng n in
  let ta = trs.(a) in
  let shift (tr : Schedule.transfer) d =
    {
      tr with
      Schedule.start = Rat.add tr.Schedule.start d;
      finish = Rat.add tr.Schedule.finish d;
    }
  in
  let half = Rat.div (Rat.sub ta.Schedule.finish ta.Schedule.start) (Rat.of_int 2) in
  let replace i tr = List.mapi (fun j t -> if j = i then tr else t) sched.Schedule.transfers in
  List.map
    (fun (name, l) -> (name, Schedule.with_transfers sched l))
    [
      ("overlap", sched.Schedule.transfers @ [ shift ta half ]);
      ("missing", List.filteri (fun j _ -> j <> a) sched.Schedule.transfers);
      ( "tied",
        replace b
          { (trs.(b)) with Schedule.start = ta.Schedule.start; finish = ta.Schedule.finish } );
      ("stated twice", ta :: sched.Schedule.transfers);
      ("start at period", replace a (shift ta sched.Schedule.period));
    ]

(* A time-varying scenario over the schedule's own edges and nodes. Fire
   times are transfer boundaries, mid-transfer instants and 1/1000-grid
   times of the unrolled horizon; a third of the events share one instant. *)
let scenario rng (sched : Schedule.t) ~periods =
  let trs = Array.of_list sched.Schedule.transfers in
  let transfer () = trs.(Random.State.int rng (Array.length trs)) in
  let period = sched.Schedule.period in
  let time () =
    let tr = transfer () in
    let offset = Rat.mul (Rat.of_int (Random.State.int rng periods)) period in
    match Random.State.int rng 4 with
    | 0 -> Rat.add offset tr.Schedule.start
    | 1 -> Rat.add offset tr.Schedule.finish
    | 2 ->
      Rat.add offset
        (Rat.div (Rat.add tr.Schedule.start tr.Schedule.finish) (Rat.of_int 2))
    | _ ->
      Fault.grid_time (Random.State.float rng (float_of_int periods *. Rat.to_float period))
  in
  (* a small pool, so events on one entity interact *)
  let edges =
    Array.init 2 (fun _ ->
        let tr = transfer () in
        (tr.Schedule.src, tr.Schedule.dst))
  in
  let nodes =
    Array.init 2 (fun _ ->
        let tr = transfer () in
        if Random.State.bool rng then tr.Schedule.src else tr.Schedule.dst)
  in
  let edge () = edges.(Random.State.int rng 2) and node () = nodes.(Random.State.int rng 2) in
  let shared = time () in
  List.init
    (1 + Random.State.int rng 6)
    (fun _ ->
      let at = if Random.State.int rng 3 = 0 then shared else time () in
      match Random.State.int rng 6 with
      | 0 ->
        let src, dst = edge () in
        Fault.Kill_edge { src; dst; at }
      | 1 ->
        let src, dst = edge () in
        Fault.Revive_edge { src; dst; at }
      | 2 ->
        let src, dst = edge () in
        let factor = [| Rat.of_ints 3 2; Rat.of_int 2; Rat.of_ints 7 4; Rat.of_int 3 |] in
        Fault.Degrade_edge { src; dst; at; factor = factor.(Random.State.int rng 4) }
      | 3 ->
        let src, dst = edge () in
        Fault.Clear_degrade { src; dst; at }
      | 4 -> Fault.Kill_node { node = node (); at }
      | _ -> Fault.Revive_node { node = node (); at })

let show = function
  | Ok (Ok _) -> "stats"
  | Ok (Error e) -> Printf.sprintf "%S" e
  | Error exn -> "exception " ^ exn

let test_differential () =
  let rng = Random.State.make [| 6529 |] in
  let cases = ref 0 in
  let check_run name sched ~periods =
    incr cases;
    let want = outcome (fun () -> Reference.run sched ~periods)
    and got = outcome (fun () -> Event_sim.run sched ~periods) in
    if want <> got then
      Alcotest.failf "%s, %d periods: run gives %s, the reference %s" name periods (show got)
        (show want)
  in
  let check_faulty name sched ~faults ~periods =
    incr cases;
    let want = outcome (fun () -> Reference.run_with_faults sched ~faults ~periods)
    and got = outcome (fun () -> Event_sim.run_with_faults sched ~faults ~periods) in
    if want <> got then
      Alcotest.failf "%s, %d periods, scenario %s: run_with_faults differs from the reference"
        name periods (Fault.describe faults)
  in
  check_run "starved relays" (starved_relays ()) ~periods:4;
  List.iter
    (fun (name, sched) ->
      let periods () = 1 + Random.State.int rng (Schedule.init_periods sched + 5) in
      let full = Schedule.init_periods sched + 3 in
      check_run name sched ~periods:full;
      check_run name sched ~periods:(periods ());
      check_faulty name sched ~faults:[] ~periods:full;
      for _ = 1 to 16 do
        let periods = if Random.State.bool rng then full else periods () in
        check_faulty name sched ~faults:(scenario rng sched ~periods) ~periods
      done;
      List.iter
        (fun (what, bad) ->
          let name = name ^ ", " ^ what in
          check_run name bad ~periods:full;
          for _ = 1 to 3 do
            check_faulty name bad ~faults:(scenario rng sched ~periods:full) ~periods:full
          done)
        (corruptions rng sched))
    (schedules ());
  Alcotest.(check bool) (Printf.sprintf "%d cases, at least 200" !cases) true (!cases >= 200)

let test_tie_order () =
  (* Tied intervals replay in reverse transfer order, so the starved relay
     whose transfer comes last is the first violation reported. *)
  let sched = starved_relays () in
  let last_relay = (List.nth sched.Schedule.transfers 1).Schedule.src in
  match Event_sim.run sched ~periods:4 with
  | Ok _ -> Alcotest.fail "starved relays replayed cleanly"
  | Error e ->
    Alcotest.(check string) "first violation"
      (Printf.sprintf "node %d forwards tree-0 message 0 it never receives" last_relay)
      e

(* A damage as the soak replays it: every event fires at time 0. *)
let at_zero (d : Repair.damage) =
  List.map (fun (src, dst) -> Fault.Kill_edge { src; dst; at = Rat.zero }) d.Repair.dead_edges
  @ List.map (fun node -> Fault.Kill_node { node; at = Rat.zero }) d.Repair.dead_nodes
  @ List.map
      (fun ((src, dst), factor) -> Fault.Degrade_edge { src; dst; at = Rat.zero; factor })
      d.Repair.degraded

let test_replay_key () =
  (* The soak keys its replay memo by [Soak.replay_key]: the damage's
     factor on each of the schedule's own links. Faults on links no
     transfer uses, and kills of nodes no transfer touches, leave both the
     key and the time-zero replay alone; a change to one schedule link's
     factor changes the key. *)
  let rng = Random.State.make [| 6547 |] in
  let off_schedule = ref 0 in
  List.iter
    (fun (name, (sched : Schedule.t)) ->
      let p = sched.Schedule.trees.(0).Multicast_tree.platform in
      let used =
        List.sort_uniq compare
          (List.map
             (fun (tr : Schedule.transfer) -> (tr.Schedule.src, tr.Schedule.dst))
             sched.Schedule.transfers)
      in
      let touched = List.sort_uniq compare (List.concat_map (fun (u, v) -> [ u; v ]) used) in
      let off_links =
        List.filter
          (fun e -> not (List.mem e used))
          (List.map (fun e -> (e.Digraph.src, e.Digraph.dst)) (Digraph.edges p.Platform.graph))
      in
      let off_nodes =
        List.filter
          (fun v -> not (List.mem v touched))
          (List.init (Platform.n_nodes p) Fun.id)
      in
      off_schedule := !off_schedule + List.length off_links + List.length off_nodes;
      let shuffled =
        List.map snd
          (List.sort compare (List.map (fun e -> (Random.State.bits rng, e)) used))
      in
      let dead, slow, live =
        match shuffled with
        | a :: b :: c :: _ -> (a, b, c)
        | _ -> Alcotest.failf "%s: fewer than 3 transfer links" name
      in
      let base ?(dead_edges = []) ?(dead_nodes = []) ?(factor = Rat.of_ints 3 2)
          ?(degraded = []) () =
        Repair.damage ~dead_edges:(dead :: dead_edges) ~dead_nodes
          ~degraded:((slow, factor) :: degraded) ()
      in
      let d = base () in
      let off_degrades = List.filteri (fun i _ -> i mod 2 = 0) off_links in
      let off =
        base
          ~dead_edges:(List.filteri (fun i _ -> i mod 2 = 1) off_links)
          ~dead_nodes:off_nodes
          ~degraded:(List.map (fun e -> (e, Rat.of_int 3)) off_degrades)
          ()
      in
      let key = Soak.replay_key sched in
      let same a b = Array.for_all2 (Option.equal Rat.equal) (key a) (key b) in
      let periods = Schedule.init_periods sched + 3 in
      let replay d = Event_sim.run_with_faults sched ~faults:(at_zero d) ~periods in
      if not (same d off) then Alcotest.failf "%s: off-schedule faults change the key" name;
      if replay d <> replay off then
        Alcotest.failf "%s: off-schedule faults change the replay" name;
      List.iter
        (fun (what, changed) ->
          if same d changed then Alcotest.failf "%s: %s leaves the key alone" name what)
        [
          ("an edge kill", base ~dead_edges:[ live ] ());
          ("another degrade factor", base ~factor:(Rat.of_int 2) ());
          ("an endpoint node kill", base ~dead_nodes:[ snd slow ] ());
        ])
    (schedules ());
  Alcotest.(check bool) "some faults fall off the schedules" true (!off_schedule > 0)

let suite =
  [
    ("replay kernel matches the reference", `Quick, test_differential);
    ("tied intervals keep reverse transfer order", `Quick, test_tie_order);
    ("the soak's replay key reads only the schedule's links", `Quick, test_replay_key);
  ]
