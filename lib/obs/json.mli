(** The one JSON value type of the repository, with its reader and its
    printer. Every JSON document the repo writes or reads goes through
    {!to_string} and {!parse}: the metrics registry ({!Metrics.to_json}),
    time series ({!Timeseries.to_json}), trace profiles
    ({!Trace_stats.to_json}), incident reports, [mcast --profile] files,
    the bench summaries and the regression baseline. The one exception
    is {!Trace.to_chrome_json}, a streaming writer whose size grows with
    the run; it shares {!add_string} and {!add_float}. *)

(** A JSON value. Numbers are floats: integers up to [2^53] in magnitude
    are exact. Object members keep their order, duplicates included. *)
type t =
  | JNull
  | JBool of bool
  | JNum of float
  | JStr of string
  | JList of t list
  | JObj of (string * t) list

(** [int n] is [JNum (float_of_int n)]. *)
val int : int -> t

(** [parse s] reads one JSON document (surrounding whitespace allowed).
    [Error] names the problem and its byte offset. [\u] escapes below
    [0x80] decode to their byte; higher code points read as ['?']. *)
val parse : string -> (t, string) result

(** [to_string v] prints [v] with one fixed layout:
    - a top-level object or array puts each member on its own line,
      indented two spaces, with [,] before the newline;
    - everything nested stays on that line, with [", "] between members
      and [": "] after keys;
    - the document ends with a newline, and an empty top-level container
      prints as [{\n}] (or [[\n]]).

    Numbers and strings are written by {!add_float} and {!add_string},
    so a non-finite number becomes a string and the output always
    parses. For finite numbers and strings,
    [parse (to_string v) = Ok v]. *)
val to_string : t -> string

(** [add_string buf s] appends [s] as a quoted string literal: quotes
    and backslashes are escaped, newline, carriage return and tab get
    their short escapes, other control characters [\u00XX]. *)
val add_string : Buffer.t -> string -> unit

(** [add_float buf f] appends [f] with 17 significant digits, enough to
    read back the same float (an integral float prints without a
    fraction). JSON has no NaN or infinity literals, so those are
    written as quoted strings (["nan"], ["inf"], ["-inf"]) rather than
    as an invalid document. *)
val add_float : Buffer.t -> float -> unit
