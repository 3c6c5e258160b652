(** Flamegraph folded-stack rendering of a trace (PR 5 analysis layer).

    The folded format — one line per distinct call stack,
    [frame;frame;...;frame value] — is the lingua franca of flamegraph
    tools ([flamegraph.pl], [inferno], speedscope's "folded" importer).
    This module renders the span trees reconstructed by
    {!Trace_stats.forests} into it, so the file an [mcast <command> --folded
    out.folded] run writes plugs straight into [flamegraph.pl out.folded > out.svg].

    Conventions: the leading frame of every stack is [domain<tid>], so a
    [--jobs N] run yields one flame per pool domain side by side; the
    value is the stack's {e self} time in integer microseconds (summed
    over every occurrence of the identical stack); zero-valued stacks
    are dropped; frame names have [';'], spaces and control characters
    replaced (the format reserves them as separators). Lines are sorted,
    making the output deterministic and diff-friendly. *)

(** Render an event list (see {!Trace.events}) as folded stacks. *)
val of_events : Trace.event list -> string
