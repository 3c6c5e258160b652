type t = {
  lb : Formulations.solution option;
  ub : Formulations.solution option;
  broadcast : Formulations.solution option;
}

let compute p =
  {
    lb = Formulations.multicast_lb p;
    ub = Formulations.multicast_ub p;
    broadcast = Formulations.broadcast_eb p;
  }

let check b ~n_targets =
  let tol = 1e-5 in
  let period_of = Formulations.period_of in
  let lb = period_of b.lb and ub = period_of b.ub and bc = period_of b.broadcast in
  if lb > ub *. (1.0 +. tol) then
    Error (Printf.sprintf "LB period %g exceeds UB period %g" lb ub)
  else if ub > (float_of_int n_targets *. lb *. (1.0 +. tol)) +. tol then
    Error (Printf.sprintf "UB period %g exceeds |T| * LB = %d * %g" ub n_targets lb)
  else if bc < lb *. (1.0 -. tol) -. tol then
    Error (Printf.sprintf "Broadcast-EB period %g below Multicast-LB %g" bc lb)
  else Ok ()
