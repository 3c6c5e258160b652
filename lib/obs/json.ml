type t =
  | JNull
  | JBool of bool
  | JNum of float
  | JStr of string
  | JList of t list
  | JObj of (string * t) list

let int n = JNum (float_of_int n)

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_float buf f =
  if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.17g" f)
  else add_string buf (string_of_float f)

(* [top] selects the top-level layout: one member per line, indented two
   spaces. Everything below the top level is written on one line. *)
let rec add_value buf ~top v =
  let container opening closing add_item items =
    Buffer.add_char buf opening;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf (if top then "," else ", ");
        if top then Buffer.add_string buf "\n  ";
        add_item x)
      items;
    if top then Buffer.add_char buf '\n';
    Buffer.add_char buf closing
  in
  match v with
  | JNull -> Buffer.add_string buf "null"
  | JBool b -> Buffer.add_string buf (string_of_bool b)
  | JNum f -> add_float buf f
  | JStr s -> add_string buf s
  | JList vs -> container '[' ']' (add_value buf ~top:false) vs
  | JObj fields ->
    container '{' '}'
      (fun (k, v) ->
        add_string buf k;
        Buffer.add_string buf ": ";
        add_value buf ~top:false v)
      fields

let to_string v =
  let buf = Buffer.create 1024 in
  add_value buf ~top:true v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

exception Bad_json of string

let parse_exn (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    String.iter (fun c -> expect c) word;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
        | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance (); go ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance (); go ()
        | Some 'u' ->
          advance ();
          let hex = Buffer.create 4 in
          for _ = 1 to 4 do
            (match peek () with
            | Some c -> Buffer.add_char hex c
            | None -> fail "truncated \\u escape");
            advance ()
          done;
          (match int_of_string_opt ("0x" ^ Buffer.contents hex) with
          | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
          | Some _ -> Buffer.add_char buf '?'
          | None -> fail "bad \\u escape");
          go ()
        | Some c -> Buffer.add_char buf c; advance (); go ()
        | None -> fail "unterminated escape")
      | Some c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> JStr (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (advance (); JObj [])
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((k, v) :: acc)
          | Some '}' -> advance (); List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        JObj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (advance (); JList [])
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements (v :: acc)
          | Some ']' -> advance (); List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        JList (elements [])
      end
    | Some 't' -> literal "true" (JBool true)
    | Some 'f' -> literal "false" (JBool false)
    | Some 'n' -> literal "null" JNull
    | Some _ -> JNum (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse s = match parse_exn s with v -> Ok v | exception Bad_json e -> Error e
