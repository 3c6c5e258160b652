let greedy ?max_tries_per_round ~candidates ~step ~solve s0 =
  let rec round s best =
    let ms = candidates s best in
    let ms =
      match max_tries_per_round with
      | None -> ms
      | Some k -> List.filteri (fun i _ -> i < k) ms
    in
    let rec probe = function
      | [] -> Option.map (fun sol -> (s, sol)) best
      | m :: rest ->
        let s' = step s m in
        let sol = solve s' in
        if Formulations.period_of sol <= Formulations.period_of best then round s' sol
        else probe rest
    in
    probe ms
  in
  round s0 (solve s0)
