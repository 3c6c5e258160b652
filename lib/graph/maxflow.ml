type result = {
  value : float;
  edge_flow : float array;
  source_side : bool array;
  sink_side : bool array;
}

let eps = 1e-12

(* Paired residual arcs: arc 2i is the i-th input edge, arc 2i+1 its
   reverse. Each node's arcs sit in [arcs] from [start.(v)] to
   [start.(v+1)], newest input edge first (and an edge's reverse arc
   before its forward arc), which is the order the search visits them.
   Every other array is a buffer that each [run] overwrites. *)
type t = {
  n : int;
  head : int array; (* arc -> head node *)
  start : int array;
  arcs : int array;
  base : float array; (* capacity per input edge, as last given *)
  cap : float array; (* residual capacity per arc *)
  level : int array;
  next : int array; (* per node: next slot of [arcs] the search tries *)
  queue : int array;
  source_side : bool array;
  sink_side : bool array;
}

let create ~n ~edges =
  let m = Array.length edges in
  let head = Array.make (2 * m) 0 in
  let start = Array.make (n + 1) 0 in
  Array.iteri
    (fun i (u, v) ->
      head.(2 * i) <- v;
      head.((2 * i) + 1) <- u;
      start.(u + 1) <- start.(u + 1) + 1;
      start.(v + 1) <- start.(v + 1) + 1)
    edges;
  for v = 0 to n - 1 do
    start.(v + 1) <- start.(v + 1) + start.(v)
  done;
  let fill = Array.sub start 0 n in
  let arcs = Array.make (2 * m) 0 in
  let push v a =
    arcs.(fill.(v)) <- a;
    fill.(v) <- fill.(v) + 1
  in
  for i = m - 1 downto 0 do
    let u, v = edges.(i) in
    push v ((2 * i) + 1);
    push u (2 * i)
  done;
  {
    n;
    head;
    start;
    arcs;
    base = Array.make m 0.0;
    cap = Array.make (2 * m) 0.0;
    level = Array.make n (-1);
    next = Array.make n 0;
    queue = Array.make (max n 1) 0;
    source_side = Array.make n false;
    sink_side = Array.make n false;
  }

(* Breadth-first search from [s], which the caller has marked: [enter a]
   marks the head of arc [a] and says whether the search goes on from
   it. *)
let bfs net s enter =
  let q = net.queue in
  q.(0) <- s;
  let qh = ref 0 and qt = ref 1 in
  while !qh < !qt do
    let v = q.(!qh) in
    incr qh;
    for k = net.start.(v) to net.start.(v + 1) - 1 do
      let a = net.arcs.(k) in
      if enter a then begin
        q.(!qt) <- net.head.(a);
        incr qt
      end
    done
  done

let run net ~cap ~s ~t ?(limit = infinity) () =
  if s = t then invalid_arg "Maxflow.solve: source equals sink";
  if Array.length cap <> Array.length net.base then
    invalid_arg "Maxflow.run: one capacity per edge";
  let n = net.n and head = net.head and rc = net.cap and level = net.level in
  for i = 0 to Array.length cap - 1 do
    let c = cap.(i) in
    if c < 0.0 then invalid_arg "Maxflow: negative capacity";
    net.base.(i) <- c;
    rc.(2 * i) <- c;
    rc.((2 * i) + 1) <- 0.0
  done;
  (* Levels by breadth-first search; written out rather than through
     [bfs], since it runs once per phase of every flow. *)
  let levels () =
    Array.fill level 0 n (-1);
    level.(s) <- 0;
    let q = net.queue in
    q.(0) <- s;
    let qh = ref 0 and qt = ref 1 in
    while !qh < !qt do
      let v = q.(!qh) in
      incr qh;
      for k = net.start.(v) to net.start.(v + 1) - 1 do
        let a = net.arcs.(k) in
        let w = head.(a) in
        if level.(w) < 0 && rc.(a) > eps then begin
          level.(w) <- level.(v) + 1;
          q.(!qt) <- w;
          incr qt
        end
      done
    done;
    level.(t) >= 0
  in
  (* Blocking flow by DFS with an arc iterator per node. *)
  let next = net.next and arcs = net.arcs in
  let rec dfs v pushed =
    if v = t then pushed
    else begin
      let stop = net.start.(v + 1) in
      let got = ref 0.0 in
      while !got = 0.0 && next.(v) < stop do
        let a = arcs.(next.(v)) in
        let w = head.(a) in
        let c = rc.(a) in
        let g =
          if c > eps && level.(w) = level.(v) + 1 then dfs w (if pushed <= c then pushed else c)
          else 0.0
        in
        if g > eps then begin
          rc.(a) <- rc.(a) -. g;
          rc.(a lxor 1) <- rc.(a lxor 1) +. g;
          got := g
        end
        else next.(v) <- next.(v) + 1
      done;
      !got
    end
  in
  let total = ref 0.0 in
  let continue_ = ref true in
  while !continue_ && !total < limit -. eps && levels () do
    Array.blit net.start 0 next 0 n;
    let inner = ref true in
    while !inner do
      let got = dfs s (limit -. !total) in
      if got > eps then begin
        total := !total +. got;
        if !total >= limit -. eps then inner := false
      end
      else inner := false
    done;
    if !total >= limit -. eps then continue_ := false
  done;
  !total

let flow net e = net.base.(e) -. net.cap.(2 * e)

let cut_sides net ~s ~t =
  let rc = net.cap and head = net.head in
  (* Min-cut side: nodes reachable from s in the residual network. *)
  let src = net.source_side in
  Array.fill src 0 net.n false;
  src.(s) <- true;
  bfs net s (fun a ->
      let w = head.(a) in
      (not src.(w))
      && rc.(a) > eps
      &&
      (src.(w) <- true;
       true));
  (* Nodes that can reach t in the residual: reverse BFS — v can step to w
     when the residual arc v->w (the pair of some arc b out of w) has
     capacity left. *)
  let snk = net.sink_side in
  Array.fill snk 0 net.n false;
  snk.(t) <- true;
  bfs net t (fun b ->
      let v = head.(b) in
      (not snk.(v))
      && rc.(b lxor 1) > eps
      &&
      (snk.(v) <- true;
       true));
  (src, snk)

let solve ~n ~edges ~s ~t ?limit () =
  let net = create ~n ~edges:(Array.map (fun (u, v, _) -> (u, v)) edges) in
  let value = run net ~cap:(Array.map (fun (_, _, c) -> c) edges) ~s ~t ?limit () in
  let source_side, sink_side = cut_sides net ~s ~t in
  {
    value;
    edge_flow = Array.init (Array.length edges) (flow net);
    source_side = Array.copy source_side;
    sink_side = Array.copy sink_side;
  }
