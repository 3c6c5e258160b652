(* What every workload shares: the benchmark's clock, the reference timing,
   the sample store one measured pass fills, and the bookkeeping behind
   [attempted]/[failed]. *)

type t = {
  samples : (string, float list) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable references : float list;  (** {!Reference} times, newest first *)
}

let create () =
  { samples = Hashtbl.create 16; attempted = 0; failed = 0; failures = []; references = [] }

let get t key = Option.value ~default:[] (Hashtbl.find_opt t.samples key)
let add t key v = Hashtbl.replace t.samples key (v :: get t key)
let total t key = Stats.sum (get t key)

(* The benchmark-owned clock; the library receives it as [?now]. *)
let clock = Unix.gettimeofday

let timed f =
  let t0 = clock () in
  let r = f () in
  (r, clock () -. t0)

(* A call into a layer's public function, timed, and traced as a span whose
   category is the layer so the rollup can attribute its self time. *)
let call ~layer name f = timed (fun () -> Trace.with_span ~cat:layer ("bench." ^ name) f)

(* Process-global state a unit could leave behind for the next one. *)
let isolate () =
  Lp_cache.reset ();
  Warm_registry.clear ()

(* The heap is collected first, so the library's garbage cannot slow the
   reference down. *)
let reference t =
  Gc.full_major ();
  let s = Reference.seconds () in
  t.references <- s :: t.references;
  s

(* Times are the samples under keys ending in [_ms]. *)
let is_time key = String.ends_with ~suffix:"_ms" key

(* One closed-loop unit, run into its own store [f] fills. Its times enter
   [t] in reference time, scaled by the reference timed just before and
   just after it. It counts as failed when it raises or one of its
   correctness checks returns [Error]. *)
let unit_ t label f =
  isolate ();
  let before = match t.references with r :: _ -> r | [] -> reference t in
  let sub = create () in
  let outcome = try f sub with e -> Error (Printexc.to_string e) in
  let scale = Reference.nominal /. ((before +. reference t) /. 2.) in
  Hashtbl.iter
    (fun k vs ->
      let vs = if is_time k then List.map (fun v -> v *. scale) vs else vs in
      Hashtbl.replace t.samples k (vs @ get t k))
    sub.samples;
  t.attempted <- t.attempted + 1;
  match outcome with
  | Ok () -> ()
  | Error msg ->
    t.failed <- t.failed + 1;
    t.failures <- (label ^ ": " ^ msg) :: t.failures

(* The passes of one run repeat identical work, so a sample slot holds the
   same unit's figure in every pass. Keep its median over the passes: on a
   shared machine identical work runs up to 30% faster or slower for
   phases of several seconds, and the median of the repeats ignores one
   such phase. Deterministic figures (counts, ratios) are equal in every
   pass and pass through unchanged. *)
let typical passes =
  let out = create () in
  List.iter
    (fun a ->
      out.attempted <- out.attempted + a.attempted;
      out.failed <- out.failed + a.failed;
      out.failures <- a.failures @ out.failures;
      out.references <- a.references @ out.references)
    passes;
  let keys =
    List.sort_uniq compare
      (List.concat_map (fun a -> Hashtbl.fold (fun k _ ks -> k :: ks) a.samples []) passes)
  in
  List.iter
    (fun k ->
      let cols = List.map (fun a -> Array.of_list (List.rev (get a k))) passes in
      let n = List.fold_left (fun n c -> min n (Array.length c)) max_int cols in
      let slot i = Stats.median (List.map (fun c -> c.(i)) cols) in
      Hashtbl.replace out.samples k (List.rev (List.init n slot)))
    keys;
  out

let check cond msg = if cond then Ok () else Error msg

let rec check_all = function
  | [] -> Ok ()
  | (cond, msg) :: rest -> if cond then check_all rest else Error msg

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a
