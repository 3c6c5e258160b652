(* Keyed store of portable warm bases (Formulations.warm_basis). The session
   engine keeps one slot per live session ("session:<id>"), written after
   every LP re-solve and dropped at departure; nothing here interprets the
   basis — it is opaque payload between two solves of related models.

   A mutex (not Atomic) because store/find/remove touch a shared Hashtbl:
   per-session re-plans run on pool workers, and each worker owns distinct
   keys, but the table's internal state is still shared. Contention is nil
   (one store + one find per session per epoch), so a single global lock
   is the simplest correct choice. *)

let lock = Mutex.create ()
let table : (string, Formulations.warm_basis) Hashtbl.t = Hashtbl.create 64

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let store key warm = with_lock (fun () -> Hashtbl.replace table key warm)
let find key = with_lock (fun () -> Hashtbl.find_opt table key)
let remove key = with_lock (fun () -> Hashtbl.remove table key)
let clear () = with_lock (fun () -> Hashtbl.reset table)
