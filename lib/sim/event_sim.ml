type delivery = {
  target : int;
  tree : int;
  message : int;
  time : Rat.t;
}

type stats = {
  periods : int;
  messages_delivered : int;
  measured_throughput : float;
  max_latency : float;
  deliveries : delivery list;
}

(* Absolute-time busy interval of one unrolled transfer. *)
type event = {
  e_src : int;
  e_dst : int;
  e_tree : int;
  e_start : Rat.t;
  e_finish : Rat.t;
}

(* Unroll the schedule with the initialization phase: an edge whose tail
   sits at depth d of its tree idles for the first d periods, then repeats
   the periodic pattern — so batch p of messages crosses depth-d edges
   during period p + d, a full period after the tail received it. *)
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

(* floor(q) for a non-negative rational, as an int. *)
let floor_int q =
  let quot, _ = Zint.ediv_rem (Rat.num q) (Rat.den q) in
  Option.value ~default:max_int (Zint.to_int quot)

let replays = Metrics.counter "sim.replays"
let faulty_replays = Metrics.counter "sim.faulty_replays"

let run (sched : Schedule.t) ~periods =
  if periods < 1 then invalid_arg "Event_sim.run: need at least one period";
  Metrics.incr replays;
  Trace.with_span ~cat:"sim" "sim.replay"
    ~args:[ ("periods", Trace.Int periods) ]
    ~result:(function
      | Error e -> [ ("error", Trace.Str e) ]
      | Ok s ->
        [
          ("delivered", Trace.Int s.messages_delivered);
          ("throughput", Trace.Float s.measured_throughput);
        ])
  @@ fun () ->
  let trees = sched.Schedule.trees in
  let platform = trees.(0).Multicast_tree.platform in
  let g = platform.Platform.graph in
  let n = Platform.n_nodes platform in
  let events = unroll sched ~periods in
  (* 1. Port exclusivity. *)
  let busy_send = Array.make n Rat.zero and busy_recv = Array.make n Rat.zero in
  let exclusivity_ok =
    List.for_all
      (fun e ->
        let ok = Rat.(busy_send.(e.e_src) <= e.e_start) && Rat.(busy_recv.(e.e_dst) <= e.e_start) in
        busy_send.(e.e_src) <- Rat.max busy_send.(e.e_src) e.e_finish;
        busy_recv.(e.e_dst) <- Rat.max busy_recv.(e.e_dst) e.e_finish;
        ok)
      events
  in
  if not exclusivity_ok then Error "one-port violation: overlapping transfers on a port"
  else begin
    (* 2. Message accounting per (tree, edge): cumulative busy time yields
       message completion times. recv_time.(tree).(node) = list of (msg,
       completion time); the source holds everything from time zero. *)
    let recv_time = Array.init (Array.length trees) (fun _ -> Array.make n []) in
    let progress = Hashtbl.create 64 in
    (* (tree, src, dst) -> cumulative busy time *)
    List.iter
      (fun e ->
        let key = (e.e_tree, e.e_src, e.e_dst) in
        let before = Option.value ~default:Rat.zero (Hashtbl.find_opt progress key) in
        let after = Rat.add before (Rat.sub e.e_finish e.e_start) in
        Hashtbl.replace progress key after;
        (* Messages completing within this interval: the next index to
           complete is floor(before / c) — the count already finished. *)
        let c = Digraph.cost g ~src:e.e_src ~dst:e.e_dst in
        let next_msg =
          let q = Rat.div before c in
          let quot, _ = Zint.ediv_rem (Rat.num q) (Rat.den q) in
          Option.value ~default:max_int (Zint.to_int quot)
        in
        let rec record msg =
          let completion_progress = Rat.mul (Rat.of_int (msg + 1)) c in
          if Rat.(completion_progress <= after) then begin
            (* completion time: interval start + (completion - before) *)
            let time = Rat.add e.e_start (Rat.sub completion_progress before) in
            recv_time.(e.e_tree).(e.e_dst) <- (msg, time) :: recv_time.(e.e_tree).(e.e_dst);
            record (msg + 1)
          end
        in
        record next_msg)
      events;
    (* 3. Causality: node u's transfer of message m on tree k must start
       after u fully received m (source exempt). Message m sent on edge
       (u,v) during the unrolled timeline: we re-walk events computing which
       messages each interval carries (same arithmetic as above but on the
       sender side). *)
    (* Each tree is exempt at its own root (the primary source for
       multicast trees, the commodity origin for scatter chains). *)
    let root_of k = trees.(k).Multicast_tree.platform.Platform.source in
    let progress2 = Hashtbl.create 64 in
    let causality_violation = ref None in
    List.iter
      (fun e ->
        let key = (e.e_tree, e.e_src, e.e_dst) in
        let before = Option.value ~default:Rat.zero (Hashtbl.find_opt progress2 key) in
        let after = Rat.add before (Rat.sub e.e_finish e.e_start) in
        Hashtbl.replace progress2 key after;
        if e.e_src <> root_of e.e_tree && !causality_violation = None then begin
          let c = Digraph.cost g ~src:e.e_src ~dst:e.e_dst in
          (* First message index touched by this interval. *)
          let first_msg =
            let q = Rat.div before c in
            let num = Rat.num q and den = Rat.den q in
            let quot, _ = Zint.ediv_rem num den in
            Option.value ~default:0 (Zint.to_int quot)
          in
          (* The sender starts pushing message [first_msg] at e_start: it
             must have been received in full by then. *)
          let received_at =
            List.assoc_opt first_msg recv_time.(e.e_tree).(e.e_src)
          in
          match received_at with
          | Some t when Rat.(t <= e.e_start) -> ()
          | Some t ->
            causality_violation :=
              Some
                (Printf.sprintf
                   "node %d forwards tree-%d message %d at %s before receiving it at %s"
                   e.e_src e.e_tree first_msg
                   (Rat.to_string e.e_start) (Rat.to_string t))
          | None ->
            causality_violation :=
              Some
                (Printf.sprintf "node %d forwards tree-%d message %d it never receives"
                   e.e_src e.e_tree first_msg)
        end)
      events;
    match !causality_violation with
    | Some msg -> Error msg
    | None ->
    (* 4. Delivery completeness. Each tree serves the target set of its own
       platform view (the full multicast set for ordinary trees, a single
       destination for scatter-style chains). Batch p of tree k crosses
       depth-d edges during period p + d, so a target at depth d is
       unconditionally owed messages 0 .. (periods - d) * m_k - 1 within the
       horizon — each exactly once. A schedule missing a transfer drops
       them; a schedule with spurious extra transfers duplicates them. *)
    let tree_targets k = trees.(k).Multicast_tree.platform.Platform.targets in
    let delivery_violation = ref None in
    Array.iteri
      (fun k per_node ->
        let tree = trees.(k).Multicast_tree.tree in
        let m_k = sched.Schedule.per_tree_messages.(k) in
        List.iter
          (fun t ->
            if !delivery_violation = None then begin
              if not (Out_tree.mem tree t) then
                delivery_violation :=
                  Some (Printf.sprintf "tree %d does not span target %d" k t)
              else begin
                let due = max 0 ((periods - Out_tree.depth tree t) * m_k) in
                let seen = Array.make (max due 1) 0 in
                List.iter
                  (fun (msg, _) -> if msg >= 0 && msg < due then seen.(msg) <- seen.(msg) + 1)
                  per_node.(t);
                for m = 0 to due - 1 do
                  if !delivery_violation = None then
                    if seen.(m) = 0 then
                      delivery_violation :=
                        Some
                          (Printf.sprintf
                             "dropped delivery: tree-%d message %d never reaches target %d" k
                             m t)
                    else if seen.(m) > 1 then
                      delivery_violation :=
                        Some
                          (Printf.sprintf
                             "duplicate delivery: tree-%d message %d reaches target %d %d \
                              times"
                             k m t seen.(m))
                done
              end
            end)
          (tree_targets k))
      recv_time;
    match !delivery_violation with
    | Some msg -> Error msg
    | None ->
      let deliveries = ref [] in
      Array.iteri
        (fun k per_node ->
          List.iter
            (fun t ->
              List.iter
                (fun (msg, time) ->
                  deliveries := { target = t; tree = k; message = msg; time } :: !deliveries)
                per_node.(t))
            (tree_targets k))
        recv_time;
      (* An instance of tree k is complete when all of k's targets have it. *)
      let complete = Hashtbl.create 64 in
      List.iter
        (fun d ->
          let key = (d.tree, d.message) in
          let cnt, latest =
            Option.value ~default:(0, Rat.zero) (Hashtbl.find_opt complete key)
          in
          Hashtbl.replace complete key (cnt + 1, Rat.max latest d.time))
        !deliveries;
      (* Steady-state rate: count completions inside a window of whole
         periods that starts after the pipeline warm-up — each such period
         completes exactly [messages_per_period] multicasts in steady
         state, so the estimate is unbiased. *)
      let completions =
        Hashtbl.fold
          (fun (k, _) (c, latest) acc ->
            if c = List.length (tree_targets k) then latest :: acc else acc)
          complete []
      in
      let warm = Schedule.init_periods sched + 1 in
      let win_start = Rat.mul (Rat.of_int warm) sched.Schedule.period in
      let win_periods = periods - warm - 1 in
      let win_end =
        Rat.add win_start (Rat.mul (Rat.of_int win_periods) sched.Schedule.period)
      in
      let in_window =
        List.length
          (List.filter (fun t -> Rat.(win_start <= t) && Rat.(t < win_end)) completions)
      in
      let measured_throughput =
        if win_periods > 0 then
          float_of_int in_window /. Rat.to_float (Rat.sub win_end win_start)
        else 0.0
      in
      (* Latency: per complete message, last delivery - nominal emission. *)
      let max_latency = ref 0.0 in
      Hashtbl.iter
        (fun (k, msg) (cnt, latest) ->
          if cnt = List.length (tree_targets k) then begin
            (* Message [msg] of tree k is emitted during period
               msg / m_k (whole messages per period). *)
            let m_k = sched.Schedule.per_tree_messages.(k) in
            let emission =
              Rat.mul (Rat.of_int (msg / max m_k 1)) sched.Schedule.period
            in
            let lat = Rat.to_float (Rat.sub latest emission) in
            if lat > !max_latency then max_latency := lat
          end)
        complete;
      Ok
        {
          periods;
          messages_delivered = List.length !deliveries;
          measured_throughput;
          max_latency = !max_latency;
          deliveries = List.rev !deliveries;
        }
  end

type loss = {
  l_tree : int;
  l_target : int;
  l_message : int;
}

type fault_stats = {
  f_periods : int;
  f_delivered : int;
  f_losses : loss list;
  f_completed : int;
  f_measured_throughput : float;
}

(* Replay a fixed schedule against a fault scenario. The schedule is NOT
   re-timed: ports keep their nominal reservations, so a transfer whose
   link died makes no progress during its slot, and a degraded link
   accrues progress at rate [1/factor] — messages complete later (or
   never, within the horizon). Pass 1 computes tentative receptions with
   begin/completion times; pass 2 validates them in completion order:
   a reception only counts if the sender is the tree root or itself held
   a validly-received copy by the moment transmission began, so losses
   cascade down the tree. *)
let run_with_faults (sched : Schedule.t) ~faults ~periods =
  if periods < 1 then invalid_arg "Event_sim.run_with_faults: need at least one period";
  Metrics.incr faulty_replays;
  Trace.with_span ~cat:"sim" "sim.replay_faulty"
    ~args:[ ("periods", Trace.Int periods) ]
    ~result:(fun s ->
      [
        ("delivered", Trace.Int s.f_delivered);
        ("losses", Trace.Int (List.length s.f_losses));
      ])
  @@ fun () ->
  let trees = sched.Schedule.trees in
  let platform = trees.(0).Multicast_tree.platform in
  let g = platform.Platform.graph in
  let events = unroll sched ~periods in
  let root_of k = trees.(k).Multicast_tree.platform.Platform.source in
  let tree_targets k = trees.(k).Multicast_tree.platform.Platform.targets in
  (* Pass 1: progress arithmetic under faults. *)
  let progress = Hashtbl.create 64 in
  let tentative = ref [] in
  (* (tree, src, dst, msg, t_begin, t_complete) *)
  List.iter
    (fun e ->
      if not (Fault.edge_dead faults ~src:e.e_src ~dst:e.e_dst ~at:e.e_start) then begin
        let f = Fault.slowdown faults ~src:e.e_src ~dst:e.e_dst ~at:e.e_start in
        let key = (e.e_tree, e.e_src, e.e_dst) in
        let before = Option.value ~default:Rat.zero (Hashtbl.find_opt progress key) in
        let span = Rat.div (Rat.sub e.e_finish e.e_start) f in
        let after = Rat.add before span in
        Hashtbl.replace progress key after;
        let c = Digraph.cost g ~src:e.e_src ~dst:e.e_dst in
        let next_msg = floor_int (Rat.div before c) in
        let rec record msg =
          let completion_progress = Rat.mul (Rat.of_int (msg + 1)) c in
          if Rat.(completion_progress <= after) then begin
            let begin_progress = Rat.mul (Rat.of_int msg) c in
            let t_begin =
              if Rat.(begin_progress <= before) then e.e_start
              else Rat.add e.e_start (Rat.mul f (Rat.sub begin_progress before))
            in
            let t_complete =
              Rat.add e.e_start (Rat.mul f (Rat.sub completion_progress before))
            in
            tentative := (e.e_tree, e.e_src, e.e_dst, msg, t_begin, t_complete) :: !tentative;
            record (msg + 1)
          end
        in
        record next_msg
      end)
    events;
  (* Pass 2: validate receptions in completion order — cascading loss. *)
  let sorted =
    List.sort
      (fun (_, _, _, _, _, a) (_, _, _, _, _, b) -> Rat.compare a b)
      (List.rev !tentative)
  in
  let valid = Hashtbl.create 64 in
  (* (tree, node, msg) -> completion time *)
  List.iter
    (fun (k, src, dst, msg, t_begin, t_complete) ->
      let sender_ok =
        src = root_of k
        ||
        match Hashtbl.find_opt valid (k, src, msg) with
        | Some t -> Rat.(t <= t_begin)
        | None -> false
      in
      if sender_ok && not (Hashtbl.mem valid (k, dst, msg)) then
        Hashtbl.replace valid (k, dst, msg) t_complete)
    sorted;
  (* Account deliveries and losses against the fault-free expectation:
     a target at depth d of tree k is owed messages
     0 .. (periods - d) * m_k - 1 (same window as [run]'s check 4). *)
  let delivered = ref 0 in
  let losses = ref [] in
  let completions = ref [] in
  Array.iteri
    (fun k (tree : Multicast_tree.t) ->
      let m_k = sched.Schedule.per_tree_messages.(k) in
      let targets = tree_targets k in
      let n_targets = List.length targets in
      (* per-message: how many targets validly received it, and when last *)
      let per_msg = Hashtbl.create 64 in
      List.iter
        (fun t ->
          let d_t =
            if Out_tree.mem tree.Multicast_tree.tree t then
              Out_tree.depth tree.Multicast_tree.tree t
            else periods
          in
          let due = max 0 ((periods - d_t) * m_k) in
          for m = 0 to due - 1 do
            match Hashtbl.find_opt valid (k, t, m) with
            | Some time ->
              incr delivered;
              let cnt, latest =
                Option.value ~default:(0, Rat.zero) (Hashtbl.find_opt per_msg m)
              in
              Hashtbl.replace per_msg m (cnt + 1, Rat.max latest time)
            | None -> losses := { l_tree = k; l_target = t; l_message = m } :: !losses
          done)
        targets;
      Hashtbl.iter
        (fun _ (cnt, latest) -> if cnt = n_targets then completions := latest :: !completions)
        per_msg)
    trees;
  let completed = List.length !completions in
  (* Same warm window as [run]: unbiased steady-state rate estimate. *)
  let warm = Schedule.init_periods sched + 1 in
  let win_start = Rat.mul (Rat.of_int warm) sched.Schedule.period in
  let win_periods = periods - warm - 1 in
  let win_end =
    Rat.add win_start (Rat.mul (Rat.of_int win_periods) sched.Schedule.period)
  in
  let in_window =
    List.length
      (List.filter (fun t -> Rat.(win_start <= t) && Rat.(t < win_end)) !completions)
  in
  let f_measured_throughput =
    if win_periods > 0 then
      float_of_int in_window /. Rat.to_float (Rat.sub win_end win_start)
    else 0.0
  in
  {
    f_periods = periods;
    f_delivered = !delivered;
    f_losses = List.rev !losses;
    f_completed = completed;
    f_measured_throughput;
  }
