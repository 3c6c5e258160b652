(** Plain-text serialization of platform instances.

    Line-oriented format (comments start with [#]):
    {v
    nodes 5
    source 0
    targets 3 4
    label 0 Psource
    edge 0 1 1/2
    edge 1 3 1
    v}
    Costs are rationals ([n] or [n/d]). Unknown directives are rejected.
    The format is what the CLI reads and writes, so platforms can be piped
    between [generate], [bounds], [heuristics] and external tools. *)

(** [to_string p] renders an instance. *)
val to_string : Platform.t -> string

(** [of_string s] parses an instance of at most 100 000 nodes. Every
    malformed input — bad integers or costs, a node count above that
    limit, duplicate directives, an out-of-range source or target,
    out-of-range or duplicate edges and labels — is reported as [Error]
    with the offending line number; no exception escapes. *)
val of_string : string -> (Platform.t, string) Result.t

(** File wrappers around the string functions. [load path] reports every
    failure — an I/O error (missing file, a directory) or a parse error —
    as [Error "PATH: ..."], naming [path] exactly once. *)
val save : string -> Platform.t -> unit

val load : string -> (Platform.t, string) Result.t
