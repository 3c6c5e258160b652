let bfs_depth g src =
  let n = Digraph.n_nodes g in
  let depth = Array.make n (-1) in
  let q = Queue.create () in
  depth.(src) <- 0;
  Queue.push src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun w ->
        if depth.(w) < 0 then begin
          depth.(w) <- depth.(v) + 1;
          Queue.push w q
        end)
      (Digraph.succs g v)
  done;
  depth

let reachable g src =
  let depth = bfs_depth g src in
  Array.map (fun d -> d >= 0) depth

let reaches_all g src targets =
  let r = reachable g src in
  List.for_all (fun t -> r.(t)) targets
