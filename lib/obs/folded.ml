(* The folded format reserves ';' (frame separator) and ' ' (value
   separator); control characters would corrupt line-oriented consumers. *)
let sanitize name =
  String.map
    (fun c ->
      match c with
      | ';' -> ':'
      | ' ' -> '_'
      | c when Char.code c < 0x20 -> '_'
      | c -> c)
    name

let of_events events =
  let stacks : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let add stack self =
    let prev = try Hashtbl.find stacks stack with Not_found -> 0.0 in
    Hashtbl.replace stacks stack (prev +. self)
  in
  List.iter
    (fun (tid, roots) ->
      let rec walk prefix (n : Trace_stats.node) =
        let stack = prefix ^ ";" ^ sanitize n.Trace_stats.n_event.Trace.ev_name in
        add stack n.Trace_stats.n_self;
        List.iter (walk stack) n.Trace_stats.n_children
      in
      List.iter (walk (Printf.sprintf "domain%d" tid)) roots)
    (Trace_stats.forests events);
  let lines =
    Hashtbl.fold
      (fun stack self acc ->
        let us = int_of_float ((self *. 1e6) +. 0.5) in
        if us > 0 then Printf.sprintf "%s %d" stack us :: acc else acc)
      stacks []
    |> List.sort compare
  in
  String.concat "" (List.map (fun l -> l ^ "\n") lines)
