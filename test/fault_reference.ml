(* The fault rules as they stood before the timeline fold, kept verbatim
   as the oracle of the tests: [edge_dead] and [slowdown] are the per-edge
   latest-event-wins predicates the replay read, and [damage_at] builds the
   damage from three in-force scans of the event list. test_resilience
   checks {!Fault.timeline} against all three, and test_replay's reference
   kernel reads the first two. *)

open Fault

(* The latest kill/revive at-or-before [at] decides the entity's state
   (validation guarantees kills and revives never tie). No event: alive. *)
let dead_in events ~at =
  let latest =
    List.fold_left
      (fun acc (t, k) ->
        if Rat.(t <= at) then
          match acc with Some (t', _) when Rat.(t' >= t) -> acc | _ -> Some (t, k)
        else acc)
      None events
  in
  match latest with Some (_, `Kill) -> true | _ -> false

let edge_events s ~src ~dst =
  List.filter_map
    (function
      | Kill_edge e when e.src = src && e.dst = dst -> Some (e.at, `Kill)
      | Revive_edge e when e.src = src && e.dst = dst -> Some (e.at, `Revive)
      | _ -> None)
    s

let node_events s v =
  List.filter_map
    (function
      | Kill_node k when k.node = v -> Some (k.at, `Kill)
      | Revive_node k when k.node = v -> Some (k.at, `Revive)
      | _ -> None)
    s

let edge_dead s ~src ~dst ~at =
  dead_in (edge_events s ~src ~dst) ~at
  || dead_in (node_events s src) ~at
  || dead_in (node_events s dst) ~at

let slowdown s ~src ~dst ~at =
  let evs =
    List.filter_map
      (function
        | Degrade_edge d when d.src = src && d.dst = dst && Rat.(d.at <= at) ->
          Some (d.at, `Degrade d.factor)
        | Clear_degrade c when c.src = src && c.dst = dst && Rat.(c.at <= at) ->
          Some (c.at, `Clear)
        | _ -> None)
      s
  in
  let rank = function `Clear -> 0 | `Degrade _ -> 1 in
  let evs =
    (* Clears apply before degrades firing at the same instant, so a
       simultaneous clear+degrade leaves the fresh factor in force. *)
    List.stable_sort
      (fun (a, ka) (b, kb) ->
        match Rat.compare a b with 0 -> compare (rank ka) (rank kb) | c -> c)
      evs
  in
  List.fold_left
    (fun acc (_, k) -> match k with `Clear -> Rat.one | `Degrade f -> Rat.mul acc f)
    Rat.one evs

(* An event is in force at [at] when it fired at or before [at] and nothing
   undoing it has fired since: no revive after a kill, no clear after a
   degradation (a clear firing at the degradation's own instant applies
   first, so it does not undo it). Validated kill/revive timelines
   alternate, so a kill in force is exactly {!edge_dead}'s latest-event-wins
   verdict, and the degradations in force on an edge multiply to its
   {!slowdown}; Repair.damage dedups the kills and nets the factors. *)
let damage_at s ~at =
  let in_force t0 undoes =
    Rat.(t0 <= at)
    && not
         (List.exists
            (fun ev ->
              undoes ev
              &&
              let t = event_time ev in
              Rat.(t0 < t && t <= at))
            s)
  in
  Repair.damage
    ~dead_edges:
      (List.filter_map
         (function
           | Kill_edge k
             when in_force k.at (function
                    | Revive_edge r -> r.src = k.src && r.dst = k.dst
                    | _ -> false) ->
             Some (k.src, k.dst)
           | _ -> None)
         s)
    ~dead_nodes:
      (List.filter_map
         (function
           | Kill_node k
             when in_force k.at (function Revive_node r -> r.node = k.node | _ -> false) ->
             Some k.node
           | _ -> None)
         s)
    ~degraded:
      (List.filter_map
         (function
           | Degrade_edge d
             when in_force d.at (function
                    | Clear_degrade c -> c.src = d.src && c.dst = d.dst
                    | _ -> false) ->
             Some ((d.src, d.dst), d.factor)
           | _ -> None)
         s)
    ()
