type arg =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ts : float;
  ev_dur : float option;
  ev_tid : int;
  ev_args : (string * arg) list;
}

(* All recording state lives behind one atomic option: a disabled check is
   a single [Atomic.get] and spans read the state exactly once, so a
   concurrent enable/disable never tears a span between two buffers. *)
type state = {
  clock : unit -> float;
  t0 : float;
  ring : event option array;
  mutex : Mutex.t;
  mutable pushed : int;  (* total events ever pushed; ring index = pushed mod capacity *)
}

let state : state option Atomic.t = Atomic.make None
let enabled () = Atomic.get state <> None

let enable ?(clock = Unix.gettimeofday) ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Trace.enable: capacity must be positive";
  Atomic.set state
    (Some { clock; t0 = clock (); ring = Array.make capacity None; mutex = Mutex.create (); pushed = 0 })

let disable () = Atomic.set state None

let push st ev =
  Mutex.lock st.mutex;
  st.ring.(st.pushed mod Array.length st.ring) <- Some ev;
  st.pushed <- st.pushed + 1;
  Mutex.unlock st.mutex

let tid () = (Domain.self () :> int)

let with_span ?(cat = "mcast") ?(args = []) ?result name f =
  match Atomic.get state with
  | None -> f ()
  | Some st ->
    let start = st.clock () in
    let record extra =
      let stop = st.clock () in
      push st
        {
          ev_name = name;
          ev_cat = cat;
          ev_ts = start -. st.t0;
          ev_dur = Some (stop -. start);
          ev_tid = tid ();
          ev_args = args @ extra;
        }
    in
    (match f () with
    | v ->
      record (match result with None -> [] | Some r -> r v);
      v
    | exception e ->
      record [ ("raised", Str (Printexc.to_string e)) ];
      raise e)

let instant ?(cat = "mcast") ?(args = []) name =
  match Atomic.get state with
  | None -> ()
  | Some st ->
    push st
      {
        ev_name = name;
        ev_cat = cat;
        ev_ts = st.clock () -. st.t0;
        ev_dur = None;
        ev_tid = tid ();
        ev_args = args;
      }

let with_buffer f =
  match Atomic.get state with
  | None -> None
  | Some st ->
    Mutex.lock st.mutex;
    let r = f st in
    Mutex.unlock st.mutex;
    Some r

let events () =
  match
    with_buffer (fun st ->
        let cap = Array.length st.ring in
        let first = if st.pushed <= cap then 0 else st.pushed - cap in
        List.filter_map
          (fun i -> st.ring.(i mod cap))
          (List.init (st.pushed - first) (fun k -> first + k)))
  with
  | None -> []
  | Some evs -> evs

let dropped () =
  match with_buffer (fun st -> max 0 (st.pushed - Array.length st.ring)) with
  | None -> 0
  | Some n -> n

(* --- Chrome trace-event JSON ----------------------------------------- *)

let json_arg buf = function
  | Str s -> Json.add_string buf s
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Json.add_float buf f
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")

let json_args buf args =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Json.add_string buf k;
      Buffer.add_char buf ':';
      json_arg buf v)
    args;
  Buffer.add_char buf '}'

let json_event buf ev =
  Buffer.add_string buf "{\"name\":";
  Json.add_string buf ev.ev_name;
  Buffer.add_string buf ",\"cat\":";
  Json.add_string buf ev.ev_cat;
  (* ts/dur are microseconds in the trace-event format. *)
  Buffer.add_string buf (Printf.sprintf ",\"ts\":%.3f" (ev.ev_ts *. 1e6));
  (match ev.ev_dur with
  | Some d ->
    Buffer.add_string buf ",\"ph\":\"X\"";
    Buffer.add_string buf (Printf.sprintf ",\"dur\":%.3f" (d *. 1e6))
  | None -> Buffer.add_string buf ",\"ph\":\"i\",\"s\":\"t\"");
  Buffer.add_string buf (Printf.sprintf ",\"pid\":1,\"tid\":%d,\"args\":" ev.ev_tid);
  json_args buf ev.ev_args;
  Buffer.add_char buf '}'

(* Perfetto counter tracks: one "C"-phase event per sample point, so a
   time series renders as a stacked counter chart alongside the span
   tracks. Times are the caller's (seconds → µs), values go in args. *)
let json_counter buf ~name ~t ~v =
  Buffer.add_string buf "{\"name\":";
  Json.add_string buf name;
  Buffer.add_string buf (Printf.sprintf ",\"cat\":\"timeseries\",\"ph\":\"C\",\"ts\":%.3f" (t *. 1e6));
  Buffer.add_string buf ",\"pid\":1,\"tid\":0,\"args\":{\"value\":";
  Json.add_float buf v;
  Buffer.add_string buf "}}"

let to_chrome_json ?(counters = []) () =
  let evs = events () in
  let d = dropped () in
  (* Drop accounting travels inside the artifact: a trailing instant makes
     a truncated ring visible from the JSON alone, without the process
     that recorded it. *)
  let summary =
    {
      ev_name = "trace.dropped";
      ev_cat = "trace";
      ev_ts = (match List.rev evs with [] -> 0.0 | last :: _ -> last.ev_ts);
      ev_dur = None;
      ev_tid = tid ();
      ev_args = [ ("dropped", Int d); ("recorded", Int (List.length evs)) ];
    }
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char buf ',';
      json_event buf ev)
    (evs @ [ summary ]);
  List.iter
    (fun (name, points) ->
      List.iter
        (fun (t, v) ->
          Buffer.add_char buf ',';
          json_counter buf ~name ~t ~v)
        points)
    counters;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

let export ?counters path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_json ?counters ()))
