(** The JSON value writers every exporter in the observability layer
    shares ({!Metrics}, {!Timeseries}, {!Slo}, {!Trace}, {!Trace_stats},
    and the incident reports built on them). *)

(** [add_string buf s] appends [s] as a quoted string literal: quotes
    and backslashes are escaped, newline, carriage return and tab get
    their short escapes, other control characters [\u00XX]. *)
val add_string : Buffer.t -> string -> unit

(** [add_float buf f] appends [f] with 17 significant digits, enough to
    read back the same float. JSON has no NaN or infinity literals, so
    those are written as quoted strings rather than as an invalid
    document. *)
val add_float : Buffer.t -> float -> unit
