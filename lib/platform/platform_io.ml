let to_string (p : Platform.t) =
  let buf = Buffer.create 1024 in
  let g = p.Platform.graph in
  Buffer.add_string buf (Printf.sprintf "nodes %d\n" (Digraph.n_nodes g));
  Buffer.add_string buf (Printf.sprintf "source %d\n" p.Platform.source);
  Buffer.add_string buf
    ("targets " ^ String.concat " " (List.map string_of_int p.Platform.targets) ^ "\n");
  for v = 0 to Digraph.n_nodes g - 1 do
    Buffer.add_string buf (Printf.sprintf "label %d %s\n" v (Digraph.label g v))
  done;
  Digraph.iter_edges
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "edge %d %d %s\n" e.Digraph.src e.Digraph.dst (Rat.to_string e.Digraph.cost)))
    g;
  Buffer.contents buf

(* Checked before any per-node array is allocated; the paper's platforms
   have tens of nodes. *)
let max_nodes = 100_000

type parse_state = {
  (* scalar directives remember the line that set them, to report duplicates *)
  mutable nodes : (int * int) option;
  mutable source : (int * int) option;
  mutable targets : (int list * int) option;
  (* labels/edges keep their line number so construction errors cite it *)
  mutable labels : (int * string * int) list;
  mutable edges : (int * int * Rat.t * int) list;
}

let of_string s =
  let st = { nodes = None; source = None; targets = None; labels = []; edges = [] } in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let dup name lineno prev = err "line %d: duplicate '%s' (first on line %d)" lineno name prev in
  let lines = String.split_on_char '\n' s in
  let parse_line lineno line =
    let line = String.trim line in
    if line = "" || line.[0] = '#' then Ok ()
    else
      match String.split_on_char ' ' line |> List.filter (fun t -> t <> "") with
      | [ "nodes"; n ] -> (
        match (st.nodes, int_of_string_opt n) with
        | Some (_, prev), _ -> dup "nodes" lineno prev
        | None, Some n when n > max_nodes ->
          err "line %d: node count %d above the limit of %d" lineno n max_nodes
        | None, Some n when n > 0 ->
          st.nodes <- Some (n, lineno);
          Ok ()
        | None, _ -> err "line %d: bad node count %S (want a positive integer)" lineno n)
      | [ "source"; v ] -> (
        match (st.source, int_of_string_opt v) with
        | Some (_, prev), _ -> dup "source" lineno prev
        | None, Some v ->
          st.source <- Some (v, lineno);
          Ok ()
        | None, None -> err "line %d: bad source %S (want an integer node id)" lineno v)
      | "targets" :: rest -> (
        match st.targets with
        | Some (_, prev) -> dup "targets" lineno prev
        | None -> (
          match List.map int_of_string_opt rest with
          | ts when ts <> [] && List.for_all Option.is_some ts ->
            st.targets <- Some (List.map Option.get ts, lineno);
            Ok ()
          | [] -> err "line %d: 'targets' needs at least one node id" lineno
          | _ -> err "line %d: bad targets (want integer node ids)" lineno))
      | [ "label"; v; name ] -> (
        match int_of_string_opt v with
        | Some v ->
          st.labels <- (v, name, lineno) :: st.labels;
          Ok ()
        | None -> err "line %d: bad label node id %S" lineno v)
      | [ "edge"; u; v; c ] -> (
        match (int_of_string_opt u, int_of_string_opt v) with
        | Some u, Some v -> (
          match Rat.of_string c with
          | cost ->
            st.edges <- (u, v, cost, lineno) :: st.edges;
            Ok ()
          | exception _ -> err "line %d: bad cost %S (want n or n/d)" lineno c)
        | _ -> err "line %d: bad edge endpoints" lineno)
      | [] -> Ok ()
      | tok :: _ -> err "line %d: unknown directive %S" lineno tok
  in
  let rec go lineno = function
    | [] -> Ok ()
    | l :: rest -> (
      match parse_line lineno l with
      | Ok () -> go (lineno + 1) rest
      | Error _ as e -> e)
  in
  let outside n v = v < 0 || v >= n in
  (* Fold Result through a list, keeping the first error. *)
  let iter_result f l =
    List.fold_left (fun acc x -> match acc with Ok () -> f x | e -> e) (Ok ()) l
  in
  match go 1 lines with
  | Error _ as e -> e
  | Ok () -> (
    match (st.nodes, st.source, st.targets) with
    | None, _, _ -> Error "missing 'nodes' directive"
    | _, None, _ -> Error "missing 'source' directive"
    | _, _, None -> Error "missing 'targets' directive"
    | Some (n, _), Some (source, lineno), _ when outside n source ->
      err "line %d: source %d out of range (platform has %d nodes)" lineno source n
    | Some (n, _), _, Some (targets, lineno) when List.exists (outside n) targets ->
      err "line %d: target %d out of range (platform has %d nodes)" lineno
        (List.find (outside n) targets) n
    | _, Some (source, _), Some (targets, lineno) when List.mem source targets ->
      err "line %d: source %d is also listed as a target" lineno source
    | Some (n, _), Some (source, _), Some (targets, _) -> (
      let g = Digraph.create n in
      let labelled =
        iter_result
          (fun (v, name, lineno) ->
            if outside n v then
              err "line %d: label node %d out of range (platform has %d nodes)" lineno v n
            else begin
              Digraph.set_label g v name;
              Ok ()
            end)
          (List.rev st.labels)
      in
      match labelled with
      | Error _ as e -> e
      | Ok () -> (
        let added =
          iter_result
            (fun (u, v, cost, lineno) ->
              if outside n u || outside n v then
                err "line %d: edge %d->%d out of range (platform has %d nodes)" lineno u v n
              else if u = v then err "line %d: self-loop edge %d->%d" lineno u v
              else if Digraph.mem_edge g ~src:u ~dst:v then
                err "line %d: duplicate edge %d->%d" lineno u v
              else if Rat.(cost <= zero) then
                err "line %d: edge %d->%d cost must be positive" lineno u v
              else begin
                Digraph.add_edge g ~src:u ~dst:v ~cost;
                Ok ()
              end)
            (List.rev st.edges)
        in
        match added with
        | Error _ as e -> e
        (* Every precondition of [Platform.make] is checked above. *)
        | Ok () -> Ok (Platform.make g ~source ~targets))))

let save path p =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string p))

(* A [Sys_error] from opening names the file itself; one from reading
   (say, of a directory) does not. *)
let load path =
  let prefix = path ^ ": " in
  match In_channel.with_open_text path In_channel.input_all with
  | s -> Result.map_error (fun e -> prefix ^ e) (of_string s)
  | exception Sys_error m ->
    Error (if String.starts_with ~prefix m then m else prefix ^ m)
