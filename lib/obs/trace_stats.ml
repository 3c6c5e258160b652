type node = {
  n_event : Trace.event;
  n_children : node list;
  n_self : float;
}

type name_stat = {
  ns_name : string;
  ns_cat : string;
  ns_count : int;
  ns_total : float;
  ns_self : float;
  ns_min : float;
  ns_max : float;
}

type domain_stat = {
  ds_tid : int;
  ds_spans : int;
  ds_busy : float;
  ds_busy_fraction : float;
  ds_max_gap : float;
}

type step = {
  st_name : string;
  st_cat : string;
  st_ts : float;
  st_dur : float;
  st_self : float;
}

type profile = {
  p_wall : float;
  p_spans : int;
  p_instants : int;
  p_dropped : int;
  p_names : name_stat list;
  p_domains : domain_stat list;
  p_critical : step list;
}

let dur (e : Trace.event) = match e.Trace.ev_dur with Some d -> d | None -> 0.0
let stop (e : Trace.event) = e.Trace.ev_ts +. dur e

(* --- span-tree reconstruction ---------------------------------------- *)

type tmp = { ev : Trace.event; mutable kids : tmp list; mutable kid_time : float }

(* Rebuild one domain's forest from completed intervals. Sorted by start
   (ties: longer span first, so an enclosing span precedes its children),
   a stack of still-open spans makes each span a child of the innermost
   interval containing it. A span starting at or after the top's end
   closes the top — sharing an endpoint makes siblings, not nesting. *)
let build_forest spans =
  let arr = Array.of_list spans in
  Array.sort
    (fun a b ->
      match compare a.Trace.ev_ts b.Trace.ev_ts with
      | 0 -> compare (dur b) (dur a)
      | c -> c)
    arr;
  let roots = ref [] in
  let stack = ref [] in
  Array.iter
    (fun ev ->
      let rec pop () =
        match !stack with
        | top :: rest when stop top.ev <= ev.Trace.ev_ts ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      let t = { ev; kids = []; kid_time = 0.0 } in
      (match !stack with
      | [] -> roots := t :: !roots
      | parent :: _ ->
        parent.kids <- t :: parent.kids;
        parent.kid_time <- parent.kid_time +. dur ev);
      stack := t :: !stack)
    arr;
  let rec freeze t =
    {
      n_event = t.ev;
      (* kids were consed newest-first; rev_map restores start order *)
      n_children = List.rev_map freeze t.kids;
      (* A child overrunning its parent (possible only on a malformed or
         truncated buffer) would drive self below zero; clamp. *)
      n_self = Float.max 0.0 (dur t.ev -. t.kid_time);
    }
  in
  List.rev_map freeze !roots

let forests events =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.ev_dur <> None then
        let prev = try Hashtbl.find by_tid e.Trace.ev_tid with Not_found -> [] in
        Hashtbl.replace by_tid e.Trace.ev_tid (e :: prev))
    events;
  Hashtbl.fold (fun tid spans acc -> (tid, build_forest (List.rev spans)) :: acc) by_tid []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* --- aggregation ------------------------------------------------------ *)

let of_events ?(dropped = 0) events =
  let spans = List.filter (fun e -> e.Trace.ev_dur <> None) events in
  let instants = List.length events - List.length spans in
  let t_first =
    List.fold_left (fun acc (e : Trace.event) -> Float.min acc e.Trace.ev_ts) infinity events
  in
  let t_last = List.fold_left (fun acc e -> Float.max acc (stop e)) neg_infinity events in
  let wall = if events = [] then 0.0 else Float.max 0.0 (t_last -. t_first) in
  let fs = forests events in
  (* per-(name, cat) stats over the reconstructed nodes *)
  let names = Hashtbl.create 32 in
  let rec visit n =
    let key = (n.n_event.Trace.ev_name, n.n_event.Trace.ev_cat) in
    let d = dur n.n_event in
    let s =
      match Hashtbl.find_opt names key with
      | None ->
        {
          ns_name = fst key;
          ns_cat = snd key;
          ns_count = 1;
          ns_total = d;
          ns_self = n.n_self;
          ns_min = d;
          ns_max = d;
        }
      | Some s ->
        {
          s with
          ns_count = s.ns_count + 1;
          ns_total = s.ns_total +. d;
          ns_self = s.ns_self +. n.n_self;
          ns_min = Float.min s.ns_min d;
          ns_max = Float.max s.ns_max d;
        }
    in
    Hashtbl.replace names key s;
    List.iter visit n.n_children
  in
  List.iter (fun (_, roots) -> List.iter visit roots) fs;
  let name_stats =
    Hashtbl.fold (fun _ s acc -> s :: acc) names []
    |> List.sort (fun a b ->
           match compare b.ns_self a.ns_self with
           | 0 -> compare a.ns_name b.ns_name
           | c -> c)
  in
  (* per-domain utilization from root spans *)
  let rec count_nodes n = 1 + List.fold_left (fun a c -> a + count_nodes c) 0 n.n_children in
  let domains =
    List.map
      (fun (tid, roots) ->
        let busy = List.fold_left (fun a r -> a +. dur r.n_event) 0.0 roots in
        let spans = List.fold_left (fun a r -> a + count_nodes r) 0 roots in
        let max_gap =
          (* idle between consecutive roots plus the leading/trailing idle
             against the whole run's window *)
          let rec gaps prev = function
            | [] -> Float.max 0.0 (t_last -. prev)
            | r :: rest ->
              let g = Float.max 0.0 (r.n_event.Trace.ev_ts -. prev) in
              Float.max g (gaps (Float.max prev (stop r.n_event)) rest)
          in
          if roots = [] then wall else gaps t_first roots
        in
        {
          ds_tid = tid;
          ds_spans = spans;
          ds_busy = busy;
          ds_busy_fraction = (if wall > 0.0 then busy /. wall else 0.0);
          ds_max_gap = max_gap;
        })
      fs
  in
  (* critical path: the longest root anywhere, then the longest direct
     child at each level (ties: earliest start) *)
  let longest nodes =
    List.fold_left
      (fun best n ->
        match best with
        | None -> Some n
        | Some b ->
          let db = dur b.n_event and dn = dur n.n_event in
          if dn > db || (dn = db && n.n_event.Trace.ev_ts < b.n_event.Trace.ev_ts) then Some n
          else best)
      None nodes
  in
  let critical =
    let all_roots = List.concat_map snd fs in
    let rec descend acc = function
      | None -> List.rev acc
      | Some n ->
        let s =
          {
            st_name = n.n_event.Trace.ev_name;
            st_cat = n.n_event.Trace.ev_cat;
            st_ts = n.n_event.Trace.ev_ts;
            st_dur = dur n.n_event;
            st_self = n.n_self;
          }
        in
        descend (s :: acc) (longest n.n_children)
    in
    descend [] (longest all_roots)
  in
  {
    p_wall = wall;
    p_spans = List.length spans;
    p_instants = instants;
    p_dropped = dropped;
    p_names = name_stats;
    p_domains = domains;
    p_critical = critical;
  }

let compute () = of_events ~dropped:(Trace.dropped ()) (Trace.events ())

let total_self p = List.fold_left (fun a s -> a +. s.ns_self) 0.0 p.p_names

(* --- rendering -------------------------------------------------------- *)

(* Rows of the self-time table. *)
let top = 15

let to_text p =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "profile: %d spans, %d instants%s; traced wall-clock %.4f s\n" p.p_spans p.p_instants
    (if p.p_dropped > 0 then Printf.sprintf " (%d events dropped: ring full)" p.p_dropped
     else "")
    p.p_wall;
  pr "%9s %6s %9s %7s %10s %10s %10s  %s\n" "self(s)" "%" "total(s)" "count" "min(ms)"
    "mean(ms)" "max(ms)" "name [cat]";
  let self_total = total_self p in
  let shown = ref 0 in
  List.iter
    (fun s ->
      if !shown < top then begin
        incr shown;
        pr "%9.4f %5.1f%% %9.4f %7d %10.3f %10.3f %10.3f  %s [%s]\n" s.ns_self
          (if self_total > 0.0 then 100.0 *. s.ns_self /. self_total else 0.0)
          s.ns_total s.ns_count (1e3 *. s.ns_min)
          (1e3 *. s.ns_total /. float_of_int (max 1 s.ns_count))
          (1e3 *. s.ns_max) s.ns_name s.ns_cat
      end)
    p.p_names;
  if List.length p.p_names > top then
    pr "  ... %d more span names below the top %d\n" (List.length p.p_names - top) top;
  pr "self-time total %.4f s over %d domain(s); wall %.4f s (coverage %.1f%%)\n" self_total
    (List.length p.p_domains) p.p_wall
    (if p.p_wall > 0.0 && p.p_domains <> [] then
       100.0 *. self_total /. (p.p_wall *. float_of_int (List.length p.p_domains))
     else 0.0);
  if p.p_domains <> [] then begin
    pr "pool utilization (root spans per domain):\n";
    pr "%8s %7s %9s %7s %14s\n" "domain" "spans" "busy(s)" "busy%" "max idle(s)";
    List.iter
      (fun d ->
        pr "%8d %7d %9.4f %6.1f%% %14.4f\n" d.ds_tid d.ds_spans d.ds_busy
          (100.0 *. d.ds_busy_fraction) d.ds_max_gap)
      p.p_domains
  end;
  if p.p_critical <> [] then begin
    pr "critical path (longest root, then longest child at each level):\n";
    List.iteri
      (fun i s ->
        pr "  %s%s [%s]  %.4f s (self %.4f s) @ %.4f s\n" (String.make (2 * i) ' ')
          s.st_name s.st_cat s.st_dur s.st_self s.st_ts)
      p.p_critical
  end;
  Buffer.contents buf

let to_json p =
  let num f = Json.JNum f and str s = Json.JStr s in
  Json.JObj
    [
      ("wall_seconds", num p.p_wall);
      ("spans", Json.int p.p_spans);
      ("instants", Json.int p.p_instants);
      ("dropped", Json.int p.p_dropped);
      ( "names",
        Json.JList
          (List.map
             (fun s ->
               Json.JObj
                 [
                   ("name", str s.ns_name);
                   ("cat", str s.ns_cat);
                   ("count", Json.int s.ns_count);
                   ("total_seconds", num s.ns_total);
                   ("self_seconds", num s.ns_self);
                   ("min_seconds", num s.ns_min);
                   ("max_seconds", num s.ns_max);
                 ])
             p.p_names) );
      ( "domains",
        Json.JList
          (List.map
             (fun d ->
               Json.JObj
                 [
                   ("tid", Json.int d.ds_tid);
                   ("spans", Json.int d.ds_spans);
                   ("busy_seconds", num d.ds_busy);
                   ("busy_fraction", num d.ds_busy_fraction);
                   ("max_idle_seconds", num d.ds_max_gap);
                 ])
             p.p_domains) );
      ( "critical_path",
        Json.JList
          (List.map
             (fun s ->
               Json.JObj
                 [
                   ("name", str s.st_name);
                   ("cat", str s.st_cat);
                   ("ts_seconds", num s.st_ts);
                   ("dur_seconds", num s.st_dur);
                   ("self_seconds", num s.st_self);
                 ])
             p.p_critical) );
    ]
