let digraph ?(highlight_nodes = []) ?(diamond_nodes = []) ?(highlight_edges = []) g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph platform {\n  rankdir=TB;\n  node [shape=circle];\n";
  for v = 0 to Digraph.n_nodes g - 1 do
    let attrs = ref [] in
    if List.mem v highlight_nodes then attrs := "style=filled" :: "fillcolor=gray80" :: !attrs;
    if List.mem v diamond_nodes then attrs := "shape=diamond" :: !attrs;
    Buffer.add_string buf
      (Printf.sprintf "  n%d [label=\"%s\"%s];\n" v (Digraph.label g v)
         (if !attrs = [] then "" else ", " ^ String.concat ", " !attrs))
  done;
  Digraph.iter_edges
    (fun e ->
      let attrs = ref [ Printf.sprintf "label=\"%s\"" (Rat.to_string e.cost) ] in
      if List.mem (e.src, e.dst) highlight_edges then
        attrs := "style=bold" :: "color=black" :: "penwidth=2" :: !attrs;
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d%s;\n" e.src e.dst
           (if !attrs = [] then "" else " [" ^ String.concat ", " !attrs ^ "]")))
    g;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let save path dot =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc dot)
