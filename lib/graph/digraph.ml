type edge = { src : int; dst : int; cost : Rat.t }

type t = {
  n : int;
  mutable m : int;
  out_adj : edge list array; (* newest first; reversed on read *)
  in_adj : edge list array;
  index : (int, edge) Hashtbl.t; (* key = src * n + dst *)
  labels : string option array;
}

let create n =
  if n < 0 then invalid_arg "Digraph.create: negative size";
  {
    n;
    m = 0;
    out_adj = Array.make (max n 1) [];
    in_adj = Array.make (max n 1) [];
    index = Hashtbl.create (4 * max n 1);
    labels = Array.make (max n 1) None;
  }

let n_nodes g = g.n
let n_edges g = g.m

let check_node g v name =
  if v < 0 || v >= g.n then invalid_arg ("Digraph: node out of range in " ^ name)

let key g src dst = (src * g.n) + dst

let mem_edge g ~src ~dst =
  src >= 0 && src < g.n && dst >= 0 && dst < g.n
  && Hashtbl.mem g.index (key g src dst)

let add_edge g ~src ~dst ~cost =
  check_node g src "add_edge";
  check_node g dst "add_edge";
  if src = dst then invalid_arg "Digraph.add_edge: self loop";
  if Rat.(cost <= zero) then invalid_arg "Digraph.add_edge: non-positive cost";
  if mem_edge g ~src ~dst then invalid_arg "Digraph.add_edge: duplicate edge";
  let e = { src; dst; cost } in
  Hashtbl.replace g.index (key g src dst) e;
  g.out_adj.(src) <- e :: g.out_adj.(src);
  g.in_adj.(dst) <- e :: g.in_adj.(dst);
  g.m <- g.m + 1

let add_sym_edge g a b cost =
  add_edge g ~src:a ~dst:b ~cost;
  add_edge g ~src:b ~dst:a ~cost

let find_edge g ~src ~dst =
  check_node g src "find_edge";
  check_node g dst "find_edge";
  Hashtbl.find g.index (key g src dst)

let find_edge_opt g ~src ~dst =
  if src < 0 || src >= g.n || dst < 0 || dst >= g.n then None
  else Hashtbl.find_opt g.index (key g src dst)

let cost g ~src ~dst = (find_edge g ~src ~dst).cost

let replace_in_list e l =
  List.map (fun e' -> if e'.src = e.src && e'.dst = e.dst then e else e') l

let set_cost g ~src ~dst ~cost =
  let old = find_edge g ~src ~dst in
  let e = { old with cost } in
  Hashtbl.replace g.index (key g src dst) e;
  g.out_adj.(src) <- replace_in_list e g.out_adj.(src);
  g.in_adj.(dst) <- replace_in_list e g.in_adj.(dst)

let out_edges g v =
  check_node g v "out_edges";
  List.rev g.out_adj.(v)

let in_edges g v =
  check_node g v "in_edges";
  List.rev g.in_adj.(v)

let out_degree g v = List.length (out_edges g v)
let in_degree g v = List.length (in_edges g v)
let succs g v = List.map (fun e -> e.dst) (out_edges g v)
let preds g v = List.map (fun e -> e.src) (in_edges g v)

let fold_edges f acc g =
  let acc = ref acc in
  for v = 0 to g.n - 1 do
    List.iter (fun e -> acc := f !acc e) g.out_adj.(v)
  done;
  !acc

let iter_edges f g = fold_edges (fun () e -> f e) () g
let edges g = List.rev (fold_edges (fun acc e -> e :: acc) [] g)

let set_label g v s =
  check_node g v "set_label";
  g.labels.(v) <- Some s

let label g v =
  check_node g v "label";
  match g.labels.(v) with Some s -> s | None -> "P" ^ string_of_int v

let copy g =
  {
    n = g.n;
    m = g.m;
    out_adj = Array.copy g.out_adj;
    in_adj = Array.copy g.in_adj;
    index = Hashtbl.copy g.index;
    labels = Array.copy g.labels;
  }

let restrict g ~keep =
  let r = create g.n in
  Array.blit g.labels 0 r.labels 0 g.n;
  iter_edges
    (fun e -> if keep e.src && keep e.dst then add_edge r ~src:e.src ~dst:e.dst ~cost:e.cost)
    g;
  r

let reverse g =
  let r = create g.n in
  Array.blit g.labels 0 r.labels 0 g.n;
  iter_edges (fun e -> add_edge r ~src:e.dst ~dst:e.src ~cost:e.cost) g;
  r
