type stats = { hits : int; misses : int }

let hits = Atomic.make 0
let misses = Atomic.make 0
let enabled_flag = Atomic.make true
let set_enabled b = Atomic.set enabled_flag b

(* Rat.to_string is canonical (reduced form), so equal costs always print
   equally and the fingerprint is injective on what the LPs read. *)
let fingerprint (p : Platform.t) =
  let buf = Buffer.create 256 in
  let g = p.Platform.graph in
  Buffer.add_string buf (string_of_int (Digraph.n_nodes g));
  Buffer.add_string buf ";s";
  Buffer.add_string buf (string_of_int p.Platform.source);
  Buffer.add_string buf ";t";
  List.iter
    (fun t ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int t))
    p.Platform.targets;
  Buffer.add_string buf ";a";
  Array.iter (fun b -> Buffer.add_char buf (if b then '1' else '0')) p.Platform.active;
  Buffer.add_string buf ";e";
  let edges =
    List.sort
      (fun (e1 : Digraph.edge) (e2 : Digraph.edge) ->
        match compare e1.src e2.src with 0 -> compare e1.dst e2.dst | c -> c)
      (Digraph.edges g)
  in
  List.iter
    (fun (e : Digraph.edge) ->
      Buffer.add_char buf '|';
      Buffer.add_string buf (string_of_int e.src);
      Buffer.add_char buf '>';
      Buffer.add_string buf (string_of_int e.dst);
      Buffer.add_char buf ':';
      Buffer.add_string buf (Rat.to_string e.cost))
    edges;
  Buffer.contents buf

let lock = Mutex.create ()

let lb_table :
    (string, (Formulations.solution * Formulations.warm_basis option) option) Hashtbl.t =
  Hashtbl.create 64

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* Per-caller hit/miss counters, registered on first use. Metrics.counter
   memoizes by name, so the registry lookup is the only recurring cost —
   negligible next to the fingerprint hash of the platform. *)
let caller_counter outcome caller =
  Metrics.counter (Printf.sprintf "lp_cache.%s.%s" outcome caller)

(* The LB table stores the solution together with the optimal basis, so a
   hit can warm-start future related solves just like a fresh solve could.
   [?warm] only matters on a miss. On degenerate LPs it can steer which
   optimal vertex comes back, so the cached-equals-fresh invariant needs
   callers to derive [warm] deterministically from platform state (the
   nominal LB basis is itself a deterministic solve) — then cached and
   uncached runs see identical warm inputs and stay bit-identical. *)
let multicast_lb_full ?(caller = "unknown") ?warm p =
  let solve () = Formulations.multicast_lb_warm ?warm p in
  if not (Atomic.get enabled_flag) then solve ()
  else
    fst
      (Trace.with_span ~cat:"cache" "lp_cache.lb"
         ~result:(fun (_, outcome) ->
           [ ("caller", Trace.Str caller); ("outcome", Trace.Str outcome) ])
         (fun () ->
           let key = fingerprint p in
           match with_lock (fun () -> Hashtbl.find_opt lb_table key) with
           | Some sol ->
             ignore (Atomic.fetch_and_add hits 1);
             Metrics.incr (caller_counter "hits" caller);
             (sol, "hit")
           | None ->
             ignore (Atomic.fetch_and_add misses 1);
             Metrics.incr (caller_counter "misses" caller);
             let sol = solve () in
             with_lock (fun () -> Hashtbl.replace lb_table key sol);
             (sol, "miss")))

let multicast_lb ?caller ?warm p = Option.map fst (multicast_lb_full ?caller ?warm p)

(* The nominal-basis lookup used by Repair/Robust_plan to seed survivor
   solves: solves (and caches) the platform's LB on a miss. *)
let multicast_lb_basis ?caller p = Option.bind (multicast_lb_full ?caller p) snd
let stats () = { hits = Atomic.get hits; misses = Atomic.get misses }

let reset () =
  with_lock (fun () -> Hashtbl.reset lb_table);
  Atomic.set hits 0;
  Atomic.set misses 0
