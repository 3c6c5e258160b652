(** Graphviz DOT export, for the Fig. 12-style topology dumps. *)

(** [digraph ?highlight_nodes ?diamond_nodes ?highlight_edges g] renders a
    DOT description with each edge labelled by its cost. Highlighted nodes
    are drawn filled (the paper's target shading), diamond nodes as
    diamonds; highlighted edges bold. *)
val digraph :
  ?highlight_nodes:int list ->
  ?diamond_nodes:int list ->
  ?highlight_edges:(int * int) list ->
  Digraph.t ->
  string

(** [save path dot] writes the DOT text to a file. *)
val save : string -> string -> unit
