(** Keyed registry of portable warm-start bases.

    {!Formulations.warm_basis} bases are portable {e objects}: a
    Multicast-LB solve exports one, keyed by edge endpoints and row
    identity, and any later solve of a {e related} platform can import
    it. This registry is the between-solves parking lot — a domain-safe
    map from a caller-chosen key to the most recent basis for that key.

    The motivating client is the online session engine ({!Horizon}): each
    live multicast session keeps its latest Multicast-LB basis under
    ["session:<id>"], so the next epoch's re-solve of that session —
    same platform, different residual-capacity right-hand sides —
    starts from it and finishes in a handful of dual pivots. Slots are
    written after every re-solve and dropped when the session departs,
    so the registry's size tracks the live-session count.

    Keys are free-form strings; use a ["<subsystem>:"] prefix to avoid
    collisions between clients. All operations take a global mutex —
    safe to call from {!Pool} workers (each worker touches its own keys,
    but the table is shared), and far too cold to contend. Bases are
    opaque payload here: storing a basis that turns out useless costs
    its consumer a cold restart inside the revised engine, never a wrong
    verdict. *)

(** [store key warm] replaces the basis under [key]. *)
val store : string -> Formulations.warm_basis -> unit

(** [find key] is the most recently stored basis, if any. *)
val find : string -> Formulations.warm_basis option

(** [remove key] drops the slot (no-op when absent). *)
val remove : string -> unit

(** Drop every slot (test isolation between runs). *)
val clear : unit -> unit
