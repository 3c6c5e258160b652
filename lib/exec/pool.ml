type stats = {
  jobs : int;
  tasks : int;
  per_worker : int array;
  wall_seconds : float;
  busy_seconds : float;
}

let default_jobs () =
  match Sys.getenv_opt "MCAST_JOBS" with
  | None -> 1
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 1)

let tasks_run = Metrics.counter "pool.tasks"
let maps_run = Metrics.counter "pool.maps"
let task_seconds = Metrics.histogram "pool.task_seconds"
let utilization = Metrics.gauge "pool.utilization"

(* Tasks run per worker number, summed over every map so far. *)
let totals = ref [||]
let totals_lock = Mutex.create ()

let add_totals per_worker =
  Mutex.protect totals_lock (fun () ->
      let t = !totals in
      let get a w = if w < Array.length a then a.(w) else 0 in
      totals :=
        Array.init
          (max (Array.length t) (Array.length per_worker))
          (fun w -> get t w + get per_worker w))

let worker_tasks () = Mutex.protect totals_lock (fun () -> Array.copy !totals)

(* Each worker claims tasks via [next] and writes results to distinct
   indices of [results] — disjoint writes, so no lock is needed. Workers
   never share anything else; ordering falls out of the index.

   [oversubscribe] lifts the core-count cap (see the mli): tests use it to
   exercise the multi-domain path on any machine. *)
let run_pool ?(oversubscribe = false) ~jobs f tasks =
  Metrics.incr maps_run;
  let n = Array.length tasks in
  let results = Array.make n None in
  let cores = Domain.recommended_domain_count () in
  let jobs = if oversubscribe then jobs else min jobs cores in
  let jobs = if jobs < 1 then 1 else min jobs (max n 1) in
  let per_worker = Array.make jobs 0 in
  (* Per-worker busy time: disjoint writes like [per_worker]. Feeds the
     pool.task_seconds histogram (per-task skew) and the pool.utilization
     gauge (busy fraction of the whole map) — the no-trace view of
     scheduling balance. *)
  let busy = Array.make jobs 0.0 in
  let next = Atomic.make 0 in
  let worker w =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        Metrics.incr tasks_run;
        let t_start = Unix.gettimeofday () in
        let r =
          Trace.with_span ~cat:"pool" "pool.task"
            ~args:[ ("index", Trace.Int i); ("worker", Trace.Int w) ]
            ~result:(function
              | Ok _ -> [ ("outcome", Trace.Str "ok") ]
              | Error e -> [ ("outcome", Trace.Str (Printexc.to_string e)) ])
            (fun () -> try Ok (f tasks.(i)) with e -> Error e)
        in
        let elapsed = Unix.gettimeofday () -. t_start in
        Metrics.observe task_seconds elapsed;
        busy.(w) <- busy.(w) +. elapsed;
        results.(i) <- Some r;
        per_worker.(w) <- per_worker.(w) + 1;
        loop ()
      end
    in
    loop ()
  in
  let t0 = Unix.gettimeofday () in
  if jobs = 1 then worker 0
  else begin
    let domains = Array.init (jobs - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1))) in
    worker 0;
    Array.iter Domain.join domains
  end;
  let wall_seconds = Unix.gettimeofday () -. t0 in
  add_totals per_worker;
  let busy_seconds = Array.fold_left ( +. ) 0.0 busy in
  if wall_seconds > 0.0 then
    Metrics.set_gauge utilization (busy_seconds /. (wall_seconds *. float_of_int jobs));
  let results =
    Array.map
      (function
        | Some r -> r
        | None -> Error (Failure "Pool: task not executed")
        (* unreachable: every index below [n] is claimed exactly once *))
      results
  in
  (results, { jobs; tasks = n; per_worker; wall_seconds; busy_seconds })

let map_result ?oversubscribe ?jobs f xs =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let results, _ = run_pool ?oversubscribe ~jobs f (Array.of_list xs) in
  Array.to_list results

let reraise_first results =
  Array.iter (function Error e -> raise e | Ok _ -> ()) results

let map_stats ?oversubscribe ?jobs f xs =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let results, stats = run_pool ?oversubscribe ~jobs f (Array.of_list xs) in
  reraise_first results;
  ( Array.to_list (Array.map (function Ok v -> v | Error _ -> assert false) results),
    stats )

let map ?oversubscribe ?jobs f xs = fst (map_stats ?oversubscribe ?jobs f xs)
