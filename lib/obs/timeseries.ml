type bucket = {
  b_t0 : float;
  b_t1 : float;
  b_count : int;
  b_sum : float;
  b_min : float;
  b_max : float;
  b_last : float;
}

type rollup = {
  r_count : int;
  r_sum : float;
  r_min : float;
  r_max : float;
  r_last : float;
  r_last_time : float;
}

type series = {
  s_name : string;
  (* Ring of retained buckets in time order: s_ring.(s_head + i mod cap)
     for i < s_len. Compaction rewrites the ring in place from index 0. *)
  s_ring : bucket array;
  mutable s_head : int;
  mutable s_len : int;
  mutable s_compactions : int;
  mutable s_roll : rollup;
}

type t = {
  sink_capacity : int;
  sink_mutex : Mutex.t;
  sink_series : (string, series) Hashtbl.t;
  sink_objectives : Slo.objective list;
  sink_slo : Slo.engine;
}

let dummy_bucket =
  { b_t0 = 0.0; b_t1 = 0.0; b_count = 0; b_sum = 0.0; b_min = 0.0; b_max = 0.0; b_last = 0.0 }

let empty_rollup =
  { r_count = 0; r_sum = 0.0; r_min = 0.0; r_max = 0.0; r_last = 0.0; r_last_time = 0.0 }

let create ?(capacity = 512) ?(slo = []) () =
  {
    sink_capacity = max 4 capacity;
    sink_mutex = Mutex.create ();
    sink_series = Hashtbl.create 16;
    sink_objectives = slo;
    sink_slo = Slo.engine slo;
  }

let locked t f =
  Mutex.lock t.sink_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.sink_mutex) f

let get_series t name =
  match Hashtbl.find_opt t.sink_series name with
  | Some s -> s
  | None ->
    let s =
      {
        s_name = name;
        s_ring = Array.make t.sink_capacity dummy_bucket;
        s_head = 0;
        s_len = 0;
        s_compactions = 0;
        s_roll = empty_rollup;
      }
    in
    Hashtbl.replace t.sink_series name s;
    s

let nth s i = s.s_ring.(  (s.s_head + i) mod Array.length s.s_ring)

let merge_buckets a b =
  {
    b_t0 = Float.min a.b_t0 b.b_t0;
    b_t1 = Float.max a.b_t1 b.b_t1;
    b_count = a.b_count + b.b_count;
    b_sum = a.b_sum +. b.b_sum;
    b_min = Float.min a.b_min b.b_min;
    b_max = Float.max a.b_max b.b_max;
    b_last = (if b.b_t1 >= a.b_t1 then b.b_last else a.b_last);
  }

(* Pairwise merge: halves the bucket count (rounding up — a trailing odd
   bucket survives unmerged), doubling each bucket's effective time
   span. Old history gets coarser; nothing is dropped. *)
let compact s =
  let n = s.s_len in
  let out = Array.make ((n + 1) / 2) dummy_bucket in
  let j = ref 0 in
  let i = ref 0 in
  while !i < n do
    let b =
      if !i + 1 < n then merge_buckets (nth s !i) (nth s (!i + 1)) else nth s !i
    in
    out.(!j) <- b;
    incr j;
    i := !i + 2
  done;
  Array.blit out 0 s.s_ring 0 !j;
  s.s_head <- 0;
  s.s_len <- !j;
  s.s_compactions <- s.s_compactions + 1

let sample t name ~time v =
  locked t (fun () ->
      let s = get_series t name in
      if s.s_len >= Array.length s.s_ring then compact s;
      let idx = (s.s_head + s.s_len) mod Array.length s.s_ring in
      s.s_ring.(idx) <-
        { b_t0 = time; b_t1 = time; b_count = 1; b_sum = v; b_min = v; b_max = v; b_last = v };
      s.s_len <- s.s_len + 1;
      let r = s.s_roll in
      s.s_roll <-
        (if r.r_count = 0 then
           { r_count = 1; r_sum = v; r_min = v; r_max = v; r_last = v; r_last_time = time }
         else
           {
             r_count = r.r_count + 1;
             r_sum = r.r_sum +. v;
             r_min = Float.min r.r_min v;
             r_max = Float.max r.r_max v;
             r_last = v;
             r_last_time = time;
           });
      ignore (Slo.observe t.sink_slo ~time name v))

let names t =
  locked t (fun () -> Hashtbl.fold (fun name _ acc -> name :: acc) t.sink_series [])
  |> List.sort compare

let buckets t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.sink_series name with
      | None -> []
      | Some s -> List.init s.s_len (fun i -> nth s i))

let rollup t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.sink_series name with
      | None -> None
      | Some s -> if s.s_roll.r_count = 0 then None else Some s.s_roll)

let slo_events t = locked t (fun () -> Slo.events t.sink_slo)

let unsampled t = List.filter (fun o -> rollup t o.Slo.o_series = None) t.sink_objectives

let mean r = if r.r_count = 0 then 0.0 else r.r_sum /. float_of_int r.r_count

let compactions t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.sink_series name with None -> 0 | Some s -> s.s_compactions)

let window t name ~t0 ~t1 =
  let bs = buckets t name in
  let overlapping = List.filter (fun b -> b.b_t1 >= t0 && b.b_t0 <= t1) bs in
  match overlapping with
  | [] -> None
  | first :: _ ->
    let init =
      {
        r_count = 0;
        r_sum = 0.0;
        r_min = first.b_min;
        r_max = first.b_max;
        r_last = first.b_last;
        r_last_time = first.b_t1;
      }
    in
    Some
      (List.fold_left
         (fun r b ->
           {
             r_count = r.r_count + b.b_count;
             r_sum = r.r_sum +. b.b_sum;
             r_min = Float.min r.r_min b.b_min;
             r_max = Float.max r.r_max b.b_max;
             r_last = b.b_last;
             r_last_time = b.b_t1;
           })
         init overlapping)

(* --- exporters --------------------------------------------------------- *)

let to_json t =
  let point b =
    Json.JObj
      [
        ("t0", Json.JNum b.b_t0);
        ("t1", Json.JNum b.b_t1);
        ("count", Json.int b.b_count);
        ("sum", Json.JNum b.b_sum);
        ("min", Json.JNum b.b_min);
        ("max", Json.JNum b.b_max);
        ("last", Json.JNum b.b_last);
      ]
  in
  Json.JObj
    (List.map
       (fun name ->
         let r = match rollup t name with Some r -> r | None -> empty_rollup in
         ( name,
           Json.JObj
             [
               ("count", Json.int r.r_count);
               ("sum", Json.JNum r.r_sum);
               ("min", Json.JNum r.r_min);
               ("max", Json.JNum r.r_max);
               ("mean", Json.JNum (mean r));
               ("last", Json.JNum r.r_last);
               ("compactions", Json.int (compactions t name));
               ("points", Json.JList (List.map point (buckets t name)));
             ] ))
       (names t))

(* OpenMetrics metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. *)
let sanitize name =
  let b = Bytes.of_string name in
  Bytes.iteri
    (fun i c ->
      let ok =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
        || (i > 0 && c >= '0' && c <= '9')
      in
      if not ok then Bytes.set b i '_')
    b;
  Bytes.to_string b

let bucket_mean b = if b.b_count = 0 then 0.0 else b.b_sum /. float_of_int b.b_count

let to_openmetrics t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun name ->
      let om = sanitize name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" om);
      Buffer.add_string buf (Printf.sprintf "# HELP %s time series %s (simulated-time samples)\n" om name);
      List.iter
        (fun b ->
          Buffer.add_string buf (Printf.sprintf "%s %.9g %.6f\n" om (bucket_mean b) b.b_t1))
        (buckets t name))
    (names t);
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

let counter_tracks t =
  List.map
    (fun name -> (name, List.map (fun b -> (b.b_t1, bucket_mean b)) (buckets t name)))
    (names t)
