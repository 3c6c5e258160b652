(* Since PR 4 these are a typed view over the Metrics registry: the same
   tallies show up in Metrics snapshots (CLI --metrics, BENCH_5.json)
   under the lp.* names, while existing callers keep this record API. *)

let float_solves = Metrics.counter "lp.solves.float"
let exact_solves = Metrics.counter "lp.solves.exact"
let float_pivots = Metrics.counter "lp.pivots.float"
let exact_pivots_c = Metrics.counter "lp.pivots.exact"
let warm_hits_c = Metrics.counter "lp.warm.hits"
let factorizations = Metrics.counter "lp.factorizations"
let rank_deficient = Metrics.counter "lp.warm.rank_deficient"
let ftrans = Metrics.counter "lp.ftrans"
let btrans = Metrics.counter "lp.btrans"

type snapshot = {
  float_solves : int;
  exact_solves : int;
  pivots : int;
  exact_pivots : int;
  warm_hits : int;
}

let record_float_solve () = Metrics.incr float_solves
let record_exact_solve () = Metrics.incr exact_solves
let record_pivots n = Metrics.add float_pivots n
let record_exact_pivots n = Metrics.add exact_pivots_c n
let record_warm_hit () = Metrics.incr warm_hits_c
let record_factorization () = Metrics.incr factorizations
let record_rank_deficient () = Metrics.incr rank_deficient
let record_ftrans n = Metrics.add ftrans n
let record_btrans n = Metrics.add btrans n

let snapshot () =
  {
    float_solves = Metrics.counter_value float_solves;
    exact_solves = Metrics.counter_value exact_solves;
    pivots = Metrics.counter_value float_pivots;
    exact_pivots = Metrics.counter_value exact_pivots_c;
    warm_hits = Metrics.counter_value warm_hits_c;
  }

let since before =
  let now = snapshot () in
  {
    float_solves = now.float_solves - before.float_solves;
    exact_solves = now.exact_solves - before.exact_solves;
    pivots = now.pivots - before.pivots;
    exact_pivots = now.exact_pivots - before.exact_pivots;
    warm_hits = now.warm_hits - before.warm_hits;
  }
