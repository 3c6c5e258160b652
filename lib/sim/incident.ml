type entry =
  | E_fault of { at : float; desc : string }
  | E_breach of { at : float; objective : string; fast_burn : float; slow_burn : float }
  | E_repair of { at : float; desc : string }
  | E_recovery of { at : float; objective : string }

let entry_time = function
  | E_fault { at; _ } | E_breach { at; _ } | E_repair { at; _ } | E_recovery { at; _ } -> at

type incident = {
  i_objective : string;
  i_start : float;
  i_end : float option;
  i_entries : entry list;
}

let describe_event = function
  | Fault.Kill_edge { src; dst; at } ->
    (Rat.to_float at, Printf.sprintf "kill edge %d->%d" src dst)
  | Fault.Kill_node { node; at } -> (Rat.to_float at, Printf.sprintf "kill node %d" node)
  | Fault.Degrade_edge { src; dst; at; factor } ->
    (Rat.to_float at, Printf.sprintf "degrade edge %d->%d x%s" src dst (Rat.to_string factor))
  | Fault.Revive_edge { src; dst; at } ->
    (Rat.to_float at, Printf.sprintf "revive edge %d->%d" src dst)
  | Fault.Revive_node { node; at } -> (Rat.to_float at, Printf.sprintf "revive node %d" node)
  | Fault.Clear_degrade { src; dst; at } ->
    (Rat.to_float at, Printf.sprintf "clear degrade %d->%d" src dst)

let build ?(lookback = 25.0) ?(faults = []) ?(repairs = []) slo_events =
  let fault_points = List.map describe_event faults in
  let last_time =
    List.fold_left
      (fun acc t -> Float.max acc t)
      (List.fold_left (fun acc (e : Slo.event) -> Float.max acc e.Slo.e_at) neg_infinity slo_events)
      (List.map fst fault_points @ List.map fst repairs)
  in
  (* Pair each breach with the next recovery of the same objective. *)
  let rec pair evs acc =
    match evs with
    | [] -> List.rev acc
    | (e : Slo.event) :: rest when e.Slo.e_kind = `Breach ->
      let recovery =
        List.find_opt
          (fun (r : Slo.event) ->
            r.Slo.e_kind = `Recovery && r.Slo.e_objective = e.Slo.e_objective
            && r.Slo.e_at >= e.Slo.e_at)
          rest
      in
      pair rest ((e, recovery) :: acc)
    | _ :: rest -> pair rest acc
  in
  List.map
    (fun ((b : Slo.event), recovery) ->
      let t_start = b.Slo.e_at in
      let t_end = Option.map (fun (r : Slo.event) -> r.Slo.e_at) recovery in
      let window_end = match t_end with Some t -> t | None -> Float.max t_start last_time in
      let in_window t = t >= t_start -. lookback && t <= window_end in
      let entries =
        List.filter_map
          (fun (t, desc) -> if in_window t then Some (E_fault { at = t; desc }) else None)
          fault_points
        @ List.filter_map
            (fun (t, desc) -> if in_window t then Some (E_repair { at = t; desc }) else None)
            repairs
        @ [
            E_breach
              {
                at = t_start;
                objective = b.Slo.e_objective;
                fast_burn = b.Slo.e_fast_burn;
                slow_burn = b.Slo.e_slow_burn;
              };
          ]
        @ (match recovery with
          | Some r -> [ E_recovery { at = r.Slo.e_at; objective = r.Slo.e_objective } ]
          | None -> [])
      in
      (* Stable causal order: by time, and at equal times faults before
         the breach they explain, repairs before the recovery they earn. *)
      let rank = function E_fault _ -> 0 | E_breach _ -> 1 | E_repair _ -> 2 | E_recovery _ -> 3 in
      let entries =
        List.stable_sort
          (fun a b ->
            match Float.compare (entry_time a) (entry_time b) with
            | 0 -> compare (rank a) (rank b)
            | c -> c)
          entries
      in
      { i_objective = b.Slo.e_objective; i_start = t_start; i_end = t_end; i_entries = entries })
    (pair slo_events [])

let of_soak ~faults (rep : Soak.report) slo_events =
  let repairs =
    List.filter_map
      (function
        | Soak.Episode { at; outcome; patched } when outcome <> Soak.Cached ->
          Some
            ( Rat.to_float at,
              Printf.sprintf "recovery episode: %s%s" (Soak.outcome_name outcome)
                (if patched then " (incremental patch)" else "") )
        | Soak.Reintegrated { at; before; after } ->
          Some
            (Rat.to_float at, Printf.sprintf "reintegrated healed capacity %.3f -> %.3f" before after)
        | _ -> None)
      rep.Soak.sk_log
  in
  build ~faults ~repairs slo_events

let chain_line inc =
  let tag = function
    | E_fault { at; _ } -> Printf.sprintf "fault(t=%g)" at
    | E_breach { at; _ } -> Printf.sprintf "breach(t=%g)" at
    | E_repair { at; _ } -> Printf.sprintf "repair(t=%g)" at
    | E_recovery { at; _ } -> Printf.sprintf "recovery(t=%g)" at
  in
  String.concat " -> " (List.map tag inc.i_entries)

let to_text incidents =
  if incidents = [] then "no incidents\n"
  else begin
    let buf = Buffer.create 512 in
    let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    List.iteri
      (fun i inc ->
        (match inc.i_end with
        | Some t_end ->
          pr "incident #%d: %s breached at t=%g, recovered at t=%g (duration %g)\n" (i + 1)
            inc.i_objective inc.i_start t_end (t_end -. inc.i_start)
        | None ->
          pr "incident #%d: %s breached at t=%g, not recovered\n" (i + 1) inc.i_objective
            inc.i_start);
        pr "  chain: %s\n" (chain_line inc);
        List.iter
          (fun e ->
            match e with
            | E_fault { at; desc } -> pr "  t=%-10g fault    %s\n" at desc
            | E_breach { at; objective; fast_burn; slow_burn } ->
              pr "  t=%-10g breach   %s (fast burn %.2fx, slow %.2fx)\n" at objective fast_burn
                slow_burn
            | E_repair { at; desc } -> pr "  t=%-10g repair   %s\n" at desc
            | E_recovery { at; objective } -> pr "  t=%-10g recovery %s\n" at objective)
          inc.i_entries)
      incidents;
    let resolved = List.length (List.filter (fun i -> i.i_end <> None) incidents) in
    pr "%d incident(s), %d resolved\n" (List.length incidents) resolved;
    Buffer.contents buf
  end

let to_json incidents =
  let entry e =
    let at kind t rest = ("kind", Json.JStr kind) :: ("at", Json.JNum t) :: rest in
    Json.JObj
      (match e with
      | E_fault { at = t; desc } -> at "fault" t [ ("desc", Json.JStr desc) ]
      | E_breach { at = t; objective; fast_burn; slow_burn } ->
        at "breach" t
          [
            ("objective", Json.JStr objective);
            ("fast_burn", Json.JNum fast_burn);
            ("slow_burn", Json.JNum slow_burn);
          ]
      | E_repair { at = t; desc } -> at "repair" t [ ("desc", Json.JStr desc) ]
      | E_recovery { at = t; objective } -> at "recovery" t [ ("objective", Json.JStr objective) ])
  in
  Json.JList
    (List.map
       (fun inc ->
         Json.JObj
           [
             ("objective", Json.JStr inc.i_objective);
             ("start", Json.JNum inc.i_start);
             ("end", match inc.i_end with Some t -> Json.JNum t | None -> Json.JNull);
             ("entries", Json.JList (List.map entry inc.i_entries));
           ])
       incidents)
