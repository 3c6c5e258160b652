(* A fixed computation the benchmark owns: dense float elimination plus
   hashing, sorting and allocation, the mix the planner's LP and graph
   code exercises. No library code runs in it, so its time changes only
   with the machine's speed. Timed next to every unit, it turns the unit's
   times into reference time: time on a machine where this computation
   takes [nominal] seconds. On the shared 2-core machine the benchmark was
   built on, a version with a 50 021-entry table tracked the soak
   timelines' time with correlation 0.84, and scaling cut the spread of a
   pass's time from 12% to 7%. The table is kept at 2 003 entries so the
   reference never sets the process's peak RSS. *)

let nominal = 0.075

let seconds () =
  let t0 = Unix.gettimeofday () in
  let n = 140 in
  for rep = 1 to 3 do
    let a =
      Array.init n (fun i ->
          Array.init (2 * n) (fun j ->
              float_of_int (((i * 7) + (j * 13) + rep) mod 17) +. if i = j then 50. else 0.))
    in
    for k = 0 to n - 1 do
      for i = 0 to n - 1 do
        if i <> k then begin
          let f = a.(i).(k) /. a.(k).(k) in
          let ri = a.(i) and rk = a.(k) in
          for j = k to (2 * n) - 1 do
            ri.(j) <- ri.(j) -. (f *. rk.(j))
          done
        end
      done
    done;
    ignore (Sys.opaque_identity a)
  done;
  let h = Hashtbl.create 16 in
  for i = 0 to 200_000 do
    Hashtbl.replace h (i * 7919 mod 2_003) (float_of_int i, [ i ])
  done;
  for _ = 1 to 25 do
    let l = Hashtbl.fold (fun k (f, _) acc -> (f, k) :: acc) h [] in
    ignore (Sys.opaque_identity (List.sort compare l))
  done;
  Unix.gettimeofday () -. t0
