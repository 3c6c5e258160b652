type counter = { c_name : string; c_cell : int Atomic.t }
type gauge = { g_name : string; g_cell : float Atomic.t }

type histo = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_buckets : int array;
}

(* Log-scale bucket layout behind the percentile estimates: bucket 0
   holds everything below 1e-9 (including non-positive values), buckets
   1..120 cover [1e-9, 1e3) at 10 per decade, bucket 121 is overflow.
   Fixed layout — no per-histogram configuration — so [delta] can
   subtract bucket arrays elementwise. *)
let n_hbuckets = 122

let hbucket_of v =
  if not (Float.is_finite v) || v < 1e-9 then 0
  else if v >= 1e3 then n_hbuckets - 1
  else
    let i = 1 + int_of_float (Float.floor (10.0 *. (Float.log10 v +. 9.0))) in
    if i < 1 then 1 else if i > n_hbuckets - 2 then n_hbuckets - 2 else i

let hbucket_upper i =
  if i <= 0 then 1e-9
  else if i >= n_hbuckets - 1 then infinity
  else 1e-9 *. Float.pow 10.0 (float_of_int i /. 10.0)

let histo_percentile h q =
  if h.h_count = 0 then 0.0
  else begin
    (* nearest-rank over the cumulative bucket counts; the estimate is
       the bucket's upper bound clamped into the exact [min, max]. *)
    let rank = min h.h_count (max 1 (int_of_float (Float.ceil (q *. float_of_int h.h_count)))) in
    let est = ref h.h_max in
    let cum = ref 0 in
    (try
       Array.iteri
         (fun i n ->
           cum := !cum + n;
           if n > 0 && !cum >= rank then begin
             est := hbucket_upper i;
             raise Exit
           end)
         h.h_buckets
     with Exit -> ());
    Float.max h.h_min (Float.min h.h_max !est)
  end

type histogram = { hs_name : string; hs_mutex : Mutex.t; mutable hs : histo }

type metric =
  | M_counter of counter
  | M_gauge of gauge
  | M_histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let kind_name = function
  | M_counter _ -> "counter"
  | M_gauge _ -> "gauge"
  | M_histogram _ -> "histogram"

(* Registration is idempotent per (name, kind); a kind clash is a
   programming error worth failing loudly on. *)
let register name make match_kind =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
        match match_kind m with
        | Some v -> v
        | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S is already registered as a %s" name (kind_name m)))
      | None ->
        let m, v = make () in
        Hashtbl.replace registry name m;
        v)

let counter name =
  register name
    (fun () ->
      let c = { c_name = name; c_cell = Atomic.make 0 } in
      (M_counter c, c))
    (function M_counter c -> Some c | _ -> None)

let incr c = ignore (Atomic.fetch_and_add c.c_cell 1)
let add c n = if n <> 0 then ignore (Atomic.fetch_and_add c.c_cell n)
let counter_value c = Atomic.get c.c_cell
let set_counter c v = Atomic.set c.c_cell v

let gauge name =
  register name
    (fun () ->
      let g = { g_name = name; g_cell = Atomic.make 0.0 } in
      (M_gauge g, g))
    (function M_gauge g -> Some g | _ -> None)

let set_gauge g v = Atomic.set g.g_cell v
let gauge_value g = Atomic.get g.g_cell

let empty_histo () =
  { h_count = 0; h_sum = 0.0; h_min = 0.0; h_max = 0.0; h_buckets = Array.make n_hbuckets 0 }

let histogram name =
  register name
    (fun () ->
      let h = { hs_name = name; hs_mutex = Mutex.create (); hs = empty_histo () } in
      (M_histogram h, h))
    (function M_histogram h -> Some h | _ -> None)

let observe h v =
  Mutex.lock h.hs_mutex;
  let s = h.hs in
  let b = s.h_buckets in
  let i = hbucket_of v in
  b.(i) <- b.(i) + 1;
  h.hs <-
    (if s.h_count = 0 then { h_count = 1; h_sum = v; h_min = v; h_max = v; h_buckets = b }
     else
       {
         h_count = s.h_count + 1;
         h_sum = s.h_sum +. v;
         h_min = Float.min s.h_min v;
         h_max = Float.max s.h_max v;
         h_buckets = b;
       });
  Mutex.unlock h.hs_mutex

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histo

type snapshot = (string * value) list

let snapshot () =
  let entries =
    with_registry (fun () ->
        Hashtbl.fold
          (fun name m acc ->
            let v =
              match m with
              | M_counter c -> Counter (counter_value c)
              | M_gauge g -> Gauge (gauge_value g)
              | M_histogram h ->
                Mutex.lock h.hs_mutex;
                (* copy the bucket array: the live histogram keeps
                   mutating it after the snapshot is taken *)
                let s = { h.hs with h_buckets = Array.copy h.hs.h_buckets } in
                Mutex.unlock h.hs_mutex;
                Histogram s
            in
            (name, v) :: acc)
          registry [])
  in
  List.sort (fun (a, _) (b, _) -> compare a b) entries

let find snap name = List.assoc_opt name snap

let delta ~before after =
  List.map
    (fun (name, v) ->
      match (v, List.assoc_opt name before) with
      | Counter a, Some (Counter b) -> (name, Counter (a - b))
      | Histogram a, Some (Histogram b) ->
        (* min/max are run extrema, not window extrema: keep [after]'s. *)
        let buckets =
          if Array.length a.h_buckets = Array.length b.h_buckets then
            Array.mapi (fun i n -> n - b.h_buckets.(i)) a.h_buckets
          else Array.copy a.h_buckets
        in
        ( name,
          Histogram
            {
              a with
              h_count = a.h_count - b.h_count;
              h_sum = a.h_sum -. b.h_sum;
              h_buckets = buckets;
            } )
      | v, _ -> (name, v))
    after

let to_text snap =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, v) ->
      match v with
      | Counter n -> Buffer.add_string buf (Printf.sprintf "%-44s %d\n" name n)
      | Gauge g -> Buffer.add_string buf (Printf.sprintf "%-44s %g\n" name g)
      | Histogram h ->
        Buffer.add_string buf
          (Printf.sprintf "%-44s count %d  sum %g  min %g  max %g  p50 %g  p99 %g\n" name
             h.h_count h.h_sum h.h_min h.h_max (histo_percentile h 0.50)
             (histo_percentile h 0.99)))
    snap;
  Buffer.contents buf

let to_json snap =
  Json.JObj
    (List.map
       (fun (name, v) ->
         ( name,
           match v with
           | Counter n -> Json.int n
           | Gauge g -> Json.JNum g
           | Histogram h ->
             Json.JObj
               [
                 ("count", Json.int h.h_count);
                 ("sum", Json.JNum h.h_sum);
                 ("min", Json.JNum h.h_min);
                 ("max", Json.JNum h.h_max);
                 ("p50", Json.JNum (histo_percentile h 0.50));
                 ("p90", Json.JNum (histo_percentile h 0.90));
                 ("p99", Json.JNum (histo_percentile h 0.99));
               ] ))
       snap)
