type t = { root : int; parent : int array; members : bool array }

let of_edges ~n ~root edges =
  if root < 0 || root >= n then Error "root out of range"
  else begin
    let parent = Array.make n (-1) in
    let members = Array.make n false in
    members.(root) <- true;
    let rec insert = function
      | [] -> Ok ()
      | (u, v) :: rest ->
        if u < 0 || u >= n || v < 0 || v >= n then Error "edge endpoint out of range"
        else if v = root then Error "root cannot have a parent"
        else if parent.(v) >= 0 then Error "node has two parents"
        else begin
          parent.(v) <- u;
          members.(v) <- true;
          insert rest
        end
    in
    match insert edges with
    | Error _ as e -> e
    | Ok () ->
      (* Every member must reach the root through parents, without cycles:
         walk up with a step budget of n. *)
      let rec reaches_root v steps =
        if v = root then true
        else if steps = 0 || parent.(v) < 0 then false
        else reaches_root parent.(v) (steps - 1)
      in
      let ok = ref true in
      for v = 0 to n - 1 do
        if members.(v) && not (reaches_root v n) then ok := false;
        (* Edge tails must themselves be members. *)
        if parent.(v) >= 0 && not members.(parent.(v)) then ok := false
      done;
      if !ok then Ok { root; parent; members } else Error "edges are disconnected or cyclic"
  end

let mem t v = v >= 0 && v < Array.length t.members && t.members.(v)
let parent t v = if mem t v && t.parent.(v) >= 0 then Some t.parent.(v) else None

let children t u =
  let acc = ref [] in
  for v = Array.length t.parent - 1 downto 0 do
    if t.parent.(v) = u && t.members.(v) then acc := v :: !acc
  done;
  !acc

let edges t =
  let acc = ref [] in
  for v = Array.length t.parent - 1 downto 0 do
    if t.members.(v) && t.parent.(v) >= 0 then acc := (t.parent.(v), v) :: !acc
  done;
  !acc

let depth t v =
  if not (mem t v) then invalid_arg "Out_tree.depth: not a member";
  let rec go v acc = if t.parent.(v) < 0 then acc else go t.parent.(v) (acc + 1) in
  go v 0

let covers t nodes = List.for_all (mem t) nodes

let prune t ~keep =
  let n = Array.length t.parent in
  let useful = Array.make n false in
  useful.(t.root) <- true;
  for v = 0 to n - 1 do
    if t.members.(v) && keep v then begin
      let rec mark v =
        if not useful.(v) then begin
          useful.(v) <- true;
          if t.parent.(v) >= 0 then mark t.parent.(v)
        end
      in
      mark v
    end
  done;
  let parent = Array.mapi (fun v p -> if useful.(v) then p else -1) t.parent in
  { root = t.root; parent; members = useful }

let uses_graph_edges t g =
  List.for_all (fun (u, v) -> Digraph.mem_edge g ~src:u ~dst:v) (edges t)
