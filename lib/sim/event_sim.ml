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

(* One message crossing one edge of one tree: it began crossing at
   [r_begin] and [r_dst] holds it in full from [r_complete]. *)
type reception = {
  r_tree : int;
  r_src : int;
  r_dst : int;
  r_msg : int;
  r_begin : Rat.t;
  r_complete : Rat.t;
}

(* The replay walk, shared by both replays. Each (tree, edge) pair accrues
   progress over its busy intervals at rate 1/f, where [factor e] is the
   link's slowdown factor f during interval [e], or [None] when the link is
   dead and the interval carries nothing. With c the edge cost, message m of
   the pair starts crossing once progress passes m * c and is received when
   progress reaches (m + 1) * c; receptions may span consecutive intervals.
   Returns every reception, in walk order, and each carrying interval paired
   with the message in flight at its start (floor(progress / c)). *)
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
        (* Exact scaling costs a gcd per operation; a healthy link (f = 1)
           needs none. *)
        let healthy = Rat.equal f Rat.one in
        let span = Rat.sub e.e_finish e.e_start in
        let after = Rat.add before (if healthy then span else Rat.div span f) in
        Hashtbl.replace progress key after;
        let c = Digraph.cost g ~src:e.e_src ~dst:e.e_dst in
        let first = floor_int (Rat.div before c) in
        in_flight := (e, first) :: !in_flight;
        (* The first message was already crossing at the interval's start;
           each later one starts when its predecessor completes. *)
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

(* Each tree is rooted at its own platform view's source (the primary
   source for multicast trees, the commodity origin for scatter chains) and
   serves that view's targets. *)
let root_of (sched : Schedule.t) k =
  sched.Schedule.trees.(k).Multicast_tree.platform.Platform.source

let tree_targets (sched : Schedule.t) k =
  sched.Schedule.trees.(k).Multicast_tree.platform.Platform.targets

(* Batch p of tree k crosses depth-d edges during period p + d, so a target
   at depth d is owed messages 0 .. (periods - d) * m_k - 1 within the
   horizon; a target outside the tree is owed nothing. *)
let owed (sched : Schedule.t) ~periods k t =
  let tree = sched.Schedule.trees.(k).Multicast_tree.tree in
  if Out_tree.mem tree t then
    max 0 ((periods - Out_tree.depth tree t) * sched.Schedule.per_tree_messages.(k))
  else 0

(* An instance (tree k, message m) is complete once every target of tree k
   holds it. Takes deliveries as (tree, message, time) and returns each
   complete instance with its last delivery time. *)
let complete_instances (sched : Schedule.t) deliveries =
  let count = Hashtbl.create 64 in
  List.iter
    (fun (k, m, time) ->
      let cnt, latest = Option.value ~default:(0, Rat.zero) (Hashtbl.find_opt count (k, m)) in
      Hashtbl.replace count (k, m) (cnt + 1, Rat.max latest time))
    deliveries;
  Hashtbl.fold
    (fun (k, m) (cnt, latest) acc ->
      if cnt = List.length (tree_targets sched k) then (k, m, latest) :: acc else acc)
    count []

(* Steady-state rate: count complete instances inside a window of whole
   periods that starts after the pipeline warm-up — each such period
   completes exactly [messages_per_period] multicasts in steady state, so
   the estimate is unbiased. *)
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
  let n = Platform.n_nodes trees.(0).Multicast_tree.platform in
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
    (* 2. Message accounting: the walk at rate 1. recv_time.(tree).(node)
       lists (msg, completion time), latest first; the source holds
       everything from time zero. *)
    let receptions, in_flight = walk sched events ~factor:(fun _ -> Some Rat.one) in
    let recv_time = Array.init (Array.length trees) (fun _ -> Array.make n []) in
    List.iter
      (fun r ->
        recv_time.(r.r_tree).(r.r_dst) <- (r.r_msg, r.r_complete) :: recv_time.(r.r_tree).(r.r_dst))
      receptions;
    (* 3. Causality: the sender of an interval starts pushing the message
       in flight at its start, so it must have received that message in
       full by then. Each tree is exempt at its own root. *)
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
    | None ->
    (* 4. Delivery completeness: every target is owed its window of
       messages, each exactly once. A schedule missing a transfer drops
       them; a schedule with spurious extra transfers duplicates them. *)
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
                (Printf.sprintf "dropped delivery: tree-%d message %d never reaches target %d"
                   k m t)
            else if seen.(m) > 1 then
              Some
                (Printf.sprintf
                   "duplicate delivery: tree-%d message %d reaches target %d %d times" k m t
                   seen.(m))
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
                  deliveries := { target = t; tree = k; message = msg; time } :: !deliveries)
                per_node.(t))
            (tree_targets sched k))
        recv_time;
      let complete =
        complete_instances sched (List.map (fun d -> (d.tree, d.message, d.time)) !deliveries)
      in
      (* Latency: last delivery - nominal emission, where message [msg] of
         tree k is emitted during period msg / m_k (whole messages per
         period). *)
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
          periods;
          messages_delivered = List.length !deliveries;
          measured_throughput = steady_rate sched ~periods complete;
          max_latency;
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
   never, within the horizon). The walk yields tentative receptions with
   begin/completion times; they are validated in completion order: a
   reception only counts if the sender is the tree root or itself held a
   validly-received copy by the moment transmission began, so losses
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
  let factor e =
    if Fault.edge_dead faults ~src:e.e_src ~dst:e.e_dst ~at:e.e_start then None
    else Some (Fault.slowdown faults ~src:e.e_src ~dst:e.e_dst ~at:e.e_start)
  in
  let receptions, _ = walk sched (unroll sched ~periods) ~factor in
  let sorted = List.sort (fun a b -> Rat.compare a.r_complete b.r_complete) receptions in
  let valid = Hashtbl.create 64 in
  (* (tree, node, msg) -> completion time *)
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
  (* Account deliveries and losses against the fault-free expectation. *)
  let delivered = ref [] and losses = ref [] in
  Array.iteri
    (fun k _ ->
      List.iter
        (fun t ->
          for m = 0 to owed sched ~periods k t - 1 do
            match Hashtbl.find_opt valid (k, t, m) with
            | Some time -> delivered := (k, m, time) :: !delivered
            | None -> losses := { l_tree = k; l_target = t; l_message = m } :: !losses
          done)
        (tree_targets sched k))
    sched.Schedule.trees;
  let complete = complete_instances sched !delivered in
  {
    f_periods = periods;
    f_delivered = List.length !delivered;
    f_losses = List.rev !losses;
    f_completed = List.length complete;
    f_measured_throughput = steady_rate sched ~periods complete;
  }
