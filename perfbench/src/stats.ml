(* Order statistics behind the latency metrics. Empty inputs give 0 so a
   metric is always a finite number. *)

let nearest_rank q xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = nearest_rank 0.5 xs

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0. xs
let ratio a b = if b = 0. then 0. else a /. b

(* An epoch is busy when it admitted or re-planned something; idle epochs
   cost ~0.2 ms and would otherwise swamp the median. *)
let is_busy (e : Horizon.epoch_record) = e.Horizon.ep_arrivals > 0 || e.Horizon.ep_replans > 0

let busy_epoch_seconds epochs =
  List.filter_map
    (fun e -> if is_busy e then Some e.Horizon.ep_seconds else None)
    epochs
