type t = {
  id : int;
  source : int;
  targets : int list;
  demand : Rat.t;
  priority : int;
  arrival : Rat.t;
  departure : Rat.t;
}

let make ~id ~source ~targets ~demand ~priority ~arrival ~departure =
  let targets = List.sort_uniq compare targets in
  if id < 0 then invalid_arg "Session.make: negative id";
  if targets = [] then invalid_arg "Session.make: no targets";
  if List.mem source targets then invalid_arg "Session.make: source among targets";
  if Rat.sign demand <= 0 then invalid_arg "Session.make: demand must be positive";
  if Rat.sign arrival < 0 then invalid_arg "Session.make: negative arrival";
  if Rat.(departure <= arrival) then
    invalid_arg "Session.make: departure must follow arrival";
  { id; source; targets; demand; priority; arrival; departure }

let validate (p : Platform.t) s =
  let n = Platform.n_nodes p in
  let bad v = v < 0 || v >= n || not (Platform.is_active p v) in
  if bad s.source then Error (Printf.sprintf "session %d: source %d invalid" s.id s.source)
  else
    match List.find_opt bad s.targets with
    | Some t -> Error (Printf.sprintf "session %d: target %d invalid" s.id t)
    | None -> Ok ()

(* The single-session planning view: the shared platform's graph with the
   session's own roles. Platform.make re-validates (source among targets,
   unreachable ids) and re-derives the active set, so damage-restricted
   graphs pass through unchanged. *)
let platform_for (p : Platform.t) s =
  match validate p s with
  | Error e -> Error e
  | Ok () -> (
    try
      Ok
        (Platform.restrict
           (Platform.make ~kinds:p.Platform.kinds p.Platform.graph ~source:s.source
              ~targets:s.targets)
           ~keep:(Platform.is_active p))
    with Invalid_argument e -> Error (Printf.sprintf "session %d: %s" s.id e))

(* Admission order: priority first (higher wins), then first-come, then
   the dense id as the final deterministic tie-break. *)
let admission_order a b =
  match compare b.priority a.priority with
  | 0 -> ( match Rat.compare a.arrival b.arrival with 0 -> compare a.id b.id | c -> c)
  | c -> c
