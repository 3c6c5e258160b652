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

(* One transfer of the period pattern: [s_id] is its position in the
   transfer list, [s_pair] numbers its (tree, edge) pair and [s_edge] its
   edge, both once per replay in first-seen order, and [s_depth] is the
   depth of its tail in its tree. *)
type slot = {
  s_id : int;
  s_src : int;
  s_dst : int;
  s_tree : int;
  s_pair : int;
  s_edge : int;
  s_depth : int;
  s_start : Rat.t;
  s_finish : Rat.t;
  s_span : Rat.t;  (* s_finish - s_start *)
}

(* Busy interval of one unrolled transfer: the slot's copy in the period
   starting at [offset], from absolute time [e_start]. *)
type event = {
  slot : slot;
  offset : Rat.t;
  e_start : Rat.t;
}

let e_finish e = Rat.add e.offset e.slot.s_finish

let by_time start_a finish_a start_b finish_b =
  let c = Rat.compare start_a start_b in
  if c <> 0 then c else Rat.compare finish_a finish_b

(* The period pattern of one replay. *)
type pattern = {
  slots : slot list;  (* one per transfer, in transfer order *)
  n_pairs : int;
  endpoints : (int * int) array;  (* edge id -> (src, dst) *)
}

let pattern (sched : Schedule.t) =
  let pairs = Hashtbl.create 64 and edges = Hashtbl.create 64 in
  let id tbl key =
    match Hashtbl.find_opt tbl key with
    | Some i -> i
    | None ->
      let i = Hashtbl.length tbl in
      Hashtbl.add tbl key i;
      i
  in
  let slots =
    List.mapi
      (fun i (tr : Schedule.transfer) ->
        let { Schedule.src; dst; tree; start; finish } = tr in
        {
          s_id = i;
          s_src = src;
          s_dst = dst;
          s_tree = tree;
          s_pair = id pairs (tree, src, dst);
          s_edge = id edges (src, dst);
          s_depth = Out_tree.depth sched.Schedule.trees.(tree).Multicast_tree.tree src;
          s_start = start;
          s_finish = finish;
          s_span = Rat.sub finish start;
        })
      sched.Schedule.transfers
  in
  let endpoints = Array.make (Hashtbl.length edges) (0, 0) in
  Hashtbl.iter (fun e i -> endpoints.(i) <- e) edges;
  { slots; n_pairs = Hashtbl.length pairs; endpoints }

(* Unroll the schedule with the initialization phase: an edge whose tail
   sits at depth d of its tree idles for the first d periods, then repeats
   the periodic pattern — so batch p of messages crosses depth-d edges
   during period p + d, a full period after the tail received it. The
   intervals come out sorted by (start, finish), ties in reverse transfer
   order. When every transfer starts inside [0, period), as every built
   schedule does, period p's copies all start before period p + 1's, so
   sorting the pattern once and emitting its copies period by period gives
   that order; otherwise every copy is sorted. *)
let unroll (sched : Schedule.t) { slots; _ } ~periods =
  let period = sched.Schedule.period in
  let copy offset s = { slot = s; offset; e_start = Rat.add offset s.s_start } in
  let in_period s = Rat.sign s.s_start >= 0 && Rat.(s.s_start < period) in
  if List.for_all in_period slots then begin
    let sorted =
      Array.of_list
        (List.stable_sort
           (fun a b -> by_time a.s_start a.s_finish b.s_start b.s_finish)
           (List.rev slots))
    in
    let events = ref [] in
    for p = periods - 1 downto 0 do
      let offset = Rat.mul (Rat.of_int p) period in
      for i = Array.length sorted - 1 downto 0 do
        if sorted.(i).s_depth <= p then events := copy offset sorted.(i) :: !events
      done
    done;
    !events
  end
  else begin
    let events = ref [] in
    List.iter
      (fun s ->
        for p = s.s_depth to periods - 1 do
          let e = copy (Rat.mul (Rat.of_int p) period) s in
          events := (e, e_finish e) :: !events
        done)
      slots;
    List.map fst
      (List.sort (fun (a, fa) (b, fb) -> by_time a.e_start fa b.e_start fb) !events)
  end

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

(* The replay walk, shared by both replays. Each (tree, edge) pair counts
   its progress in messages: with c the edge cost, a busy interval of
   length s moves it by s / (c f), where [factor e] is the link's slowdown
   factor f during interval [e], or [None] when the link is dead and the
   interval carries nothing. Message m of the pair starts crossing once
   progress passes m and is received when progress reaches m + 1;
   receptions may span consecutive intervals. Returns every reception, in
   walk order, and each carrying interval paired with the message in flight
   at its start (the floor of the progress). *)
let walk (sched : Schedule.t) { slots; n_pairs; _ } events ~factor =
  let g = sched.Schedule.trees.(0).Multicast_tree.platform.Platform.graph in
  (* Edge costs are positive, so zero marks a pair not looked up yet; a
     slot's healthy progress, span / c, is kept once computed. *)
  let cost = Array.make n_pairs Rat.zero
  and healthy = Array.make (List.length slots) Rat.zero in
  let progress = Array.make n_pairs Rat.zero and crossed = Array.make n_pairs 0 in
  let receptions = ref [] and in_flight = ref [] in
  List.iter
    (fun e ->
      match factor e with
      | None -> ()
      | Some f ->
        let s = e.slot and id = e.slot.s_pair in
        if Rat.is_zero cost.(id) then cost.(id) <- Digraph.cost g ~src:s.s_src ~dst:s.s_dst;
        (* Time one message takes at this rate, and the progress of this
           interval. Exact scaling costs a gcd per operation; a healthy link
           (f = 1) needs none. *)
        let per_msg, moved =
          if Rat.equal f Rat.one then begin
            if Rat.is_zero healthy.(s.s_id) then
              healthy.(s.s_id) <- Rat.div s.s_span cost.(id);
            (cost.(id), healthy.(s.s_id))
          end
          else
            let per_msg = Rat.mul cost.(id) f in
            (per_msg, Rat.div s.s_span per_msg)
        in
        let before = progress.(id) and first = crossed.(id) in
        let after = Rat.add before moved in
        let last = floor_int after in
        progress.(id) <- after;
        crossed.(id) <- last;
        in_flight := (e, first) :: !in_flight;
        (* Messages first .. last - 1 complete in this interval. The first
           was already crossing at its start and completes once its
           remaining fraction has moved; each later one starts when its
           predecessor completes. *)
        let rec record msg t_begin t_complete =
          receptions :=
            {
              r_tree = s.s_tree;
              r_src = s.s_src;
              r_dst = s.s_dst;
              r_msg = msg;
              r_begin = t_begin;
              r_complete = t_complete;
            }
            :: !receptions;
          if msg + 1 < last then record (msg + 1) t_complete (Rat.add t_complete per_msg)
        in
        if first < last then begin
          let remaining =
            if Zint.equal (Rat.den before) Zint.one then per_msg
            else Rat.mul (Rat.sub (Rat.of_int (first + 1)) before) per_msg
          in
          record first e.e_start (Rat.add e.e_start remaining)
        end)
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

(* Per-(tree, node) tables keyed by message, tree k's node v at k * n + v. *)
let by_message (sched : Schedule.t) n =
  Array.init (Array.length sched.Schedule.trees * n) (fun _ -> Hashtbl.create 8)

let n_nodes (sched : Schedule.t) =
  Platform.n_nodes sched.Schedule.trees.(0).Multicast_tree.platform

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
  let n = n_nodes sched in
  let pat = pattern sched in
  let events = unroll sched pat ~periods in
  (* 1. Port exclusivity. *)
  let busy_send = Array.make n Rat.zero and busy_recv = Array.make n Rat.zero in
  let exclusivity_ok =
    List.for_all
      (fun e ->
        let src = e.slot.s_src and dst = e.slot.s_dst in
        let ok = Rat.(busy_send.(src) <= e.e_start) && Rat.(busy_recv.(dst) <= e.e_start) in
        let finish = e_finish e in
        busy_send.(src) <- Rat.max busy_send.(src) finish;
        busy_recv.(dst) <- Rat.max busy_recv.(dst) finish;
        ok)
      events
  in
  if not exclusivity_ok then Error "one-port violation: overlapping transfers on a port"
  else begin
    (* 2. Message accounting: the walk at rate 1. recv_time.(tree).(node)
       lists (msg, completion time), latest first, and [received] maps each
       (tree, node)'s messages to the latest of those times; the source
       holds everything from time zero. *)
    let receptions, in_flight = walk sched pat events ~factor:(fun _ -> Some Rat.one) in
    let recv_time = Array.init (Array.length trees) (fun _ -> Array.make n []) in
    let received = by_message sched n in
    List.iter
      (fun r ->
        recv_time.(r.r_tree).(r.r_dst) <-
          (r.r_msg, r.r_complete) :: recv_time.(r.r_tree).(r.r_dst);
        Hashtbl.replace received.((r.r_tree * n) + r.r_dst) r.r_msg r.r_complete)
      receptions;
    (* 3. Causality: the sender of an interval starts pushing the message
       in flight at its start, so it must have received that message in
       full by then. Each tree is exempt at its own root. *)
    let causality_violation =
      List.find_map
        (fun (e, msg) ->
          let src = e.slot.s_src and k = e.slot.s_tree in
          if src = root_of sched k then None
          else
            match Hashtbl.find_opt received.((k * n) + src) msg with
            | Some t when Rat.(t <= e.e_start) -> None
            | Some t ->
              Some
                (Printf.sprintf
                   "node %d forwards tree-%d message %d at %s before receiving it at %s"
                   src k msg (Rat.to_string e.e_start) (Rat.to_string t))
            | None ->
              Some
                (Printf.sprintf "node %d forwards tree-%d message %d it never receives" src k
                   msg))
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


(* The fault index of edge (src, dst): the instants of the timeline's
   steps whose events touch the edge (its own kills, revives, degradations
   and clears, and its endpoints' kills and revives), and the factor in
   force from each, [None] while dead. Entry 0 of the factors is the state
   before the first instant: healthy. Other steps leave the edge's state
   alone, so its state at one instant holds until the next. *)
let fault_index steps (src, dst) =
  let touches = function
    | Fault.Kill_edge { src = u; dst = v; _ }
    | Fault.Revive_edge { src = u; dst = v; _ }
    | Fault.Degrade_edge { src = u; dst = v; _ }
    | Fault.Clear_degrade { src = u; dst = v; _ } -> u = src && v = dst
    | Fault.Kill_node { node; _ } | Fault.Revive_node { node; _ } -> node = src || node = dst
  in
  let hits = List.filter (fun st -> List.exists touches st.Fault.fired) steps in
  ( Array.of_list (List.map (fun st -> st.Fault.at) hits),
    Array.of_list
      (Some Rat.one :: List.map (fun st -> Fault.edge_factor st.Fault.damage ~src ~dst) hits)
  )

(* Replay a fixed schedule against a fault scenario. The schedule is NOT
   re-timed: ports keep their nominal reservations, so a transfer whose
   link died makes no progress during its slot, and a degraded link
   accrues progress at rate [1/factor] — messages complete later (or
   never, within the horizon). The walk reads each interval's factor from
   its edge's fault index through a cursor, which only moves forward since
   intervals come in start order. It yields tentative receptions with
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
  let pat = pattern sched in
  let steps = Fault.steps (Fault.timeline faults) in
  let index = Array.map (fault_index steps) pat.endpoints in
  let cursor = Array.make (Array.length index) 0 in
  let factor e =
    let edge = e.slot.s_edge in
    let times, factors = index.(edge) in
    let i = ref cursor.(edge) in
    while !i < Array.length times && Rat.(times.(!i) <= e.e_start) do
      incr i
    done;
    cursor.(edge) <- !i;
    factors.(!i)
  in
  let receptions, _ = walk sched pat (unroll sched pat ~periods) ~factor in
  let sorted = List.sort (fun a b -> Rat.compare a.r_complete b.r_complete) receptions in
  let n = n_nodes sched in
  (* (tree, node) -> msg -> completion time *)
  let valid = by_message sched n in
  List.iter
    (fun r ->
      let k = r.r_tree in
      let sender_ok =
        r.r_src = root_of sched k
        ||
        match Hashtbl.find_opt valid.((k * n) + r.r_src) r.r_msg with
        | Some t -> Rat.(t <= r.r_begin)
        | None -> false
      in
      let held = valid.((k * n) + r.r_dst) in
      if sender_ok && not (Hashtbl.mem held r.r_msg) then
        Hashtbl.replace held r.r_msg r.r_complete)
    sorted;
  (* Account deliveries and losses against the fault-free expectation. *)
  let delivered = ref [] and losses = ref [] in
  Array.iteri
    (fun k _ ->
      List.iter
        (fun t ->
          for m = 0 to owed sched ~periods k t - 1 do
            match Hashtbl.find_opt valid.((k * n) + t) m with
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
