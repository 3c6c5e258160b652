(* Seeded fuzz pass over the two text parsers that take user input: the
   platform format ([Platform_io.of_string]) and the [--slo] spec
   ([Slo.parse]). Valid inputs are cut into tokens, and each case applies
   a few mutations: delete a token, duplicate one, swap two, or replace
   one with a token from a fixed hostile set. Every case must come back
   as [Ok] or [Error]; an exception fails the pass with the input that
   raised it. *)

(* Extreme integers, non-finite and malformed numbers, stray directives
   and operators. No integer here lies between the parser's node limit
   and [Sys.max_array_length]: a parser without the limit would try to
   allocate such a platform. *)
let hostile =
  [|
    string_of_int max_int;
    string_of_int min_int;
    "-1";
    "0";
    "nan";
    "inf";
    "-inf";
    "1e400";
    "1/0";
    "0/0";
    "-3/4";
    "99999999999999999999999";
    "";
    "#";
    "nodes";
    "targets";
    "edge";
    ">=";
    "=";
    ",";
  |]

(* [n] mutations of [tokens], position and operation drawn from [rng].
   Half of the positions fall in the first [head] tokens: for a platform
   that is its nodes/source/targets header, where one token reshapes the
   whole instance. *)
let mutate rng ~head tokens n =
  let t = ref (Array.copy tokens) in
  for _ = 1 to n do
    let len = Array.length !t in
    if len > 0 then begin
      let pick () =
        Random.State.int rng (if Random.State.bool rng then min head len else len)
      in
      let i = pick () in
      match Random.State.int rng 4 with
      | 0 -> t := Array.append (Array.sub !t 0 i) (Array.sub !t (i + 1) (len - i - 1))
      | 1 -> t := Array.concat [ Array.sub !t 0 (i + 1); [| !t.(i) |]; Array.sub !t (i + 1) (len - i - 1) ]
      | 2 ->
        let j = pick () in
        let x = !t.(i) in
        !t.(i) <- !t.(j);
        !t.(j) <- x
      | _ -> !t.(i) <- hostile.(Random.State.int rng (Array.length hostile))
    end
  done;
  !t

(* A platform as tokens: every word, with each line end its own token. *)
let platform_tokens text =
  Array.of_list
    (List.concat_map
       (fun line -> List.filter (( <> ) "") (String.split_on_char ' ' line) @ [ "\n" ])
       (String.split_on_char '\n' text))

(* An SLO spec as tokens: runs of name/number characters, and every other
   character alone. *)
let spec_tokens spec =
  let word c = c = '.' || c = '_' || c = '-' || (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') in
  let out = ref [] and cur = Buffer.create 16 in
  let flush () =
    if Buffer.length cur > 0 then out := Buffer.contents cur :: !out;
    Buffer.clear cur
  in
  String.iter
    (fun c ->
      if word c then Buffer.add_char cur c
      else begin
        flush ();
        out := String.make 1 c :: !out
      end)
    spec;
  flush ();
  Array.of_list (List.rev !out)

let cases = 2000

let test_platform_fuzz () =
  for seed = 0 to 2 do
    let p = Tiers.generate (Random.State.make [| seed |]) Tiers.small_params ~n_targets:(4 + seed) in
    let tokens = platform_tokens (Platform_io.to_string p) in
    let rng = Random.State.make [| seed; 23 |] in
    for _ = 1 to cases do
      let text =
        String.concat " " (Array.to_list (mutate rng ~head:12 tokens (1 + Random.State.int rng 3)))
      in
      match Platform_io.of_string text with
      | Ok _ | Error _ -> ()
      | exception e -> Alcotest.failf "of_string raised %s on:\n%s" (Printexc.to_string e) text
    done
  done

(* The specs CI passes to [--slo]. An accepted spec must also hold finite
   numbers only: a NaN threshold can never breach. *)
let test_slo_fuzz () =
  List.iteri
    (fun k spec ->
      let tokens = spec_tokens spec in
      let rng = Random.State.make [| k; 23 |] in
      for _ = 1 to cases do
        let s = String.concat "" (Array.to_list (mutate rng ~head:3 tokens (1 + Random.State.int rng 3))) in
        match Slo.parse s with
        | Error _ -> ()
        | Ok o ->
          if
            not
              (List.for_all Float.is_finite
                 [ o.Slo.o_threshold; o.o_budget; o.o_fast_window; o.o_slow_window; o.o_fast_burn; o.o_slow_burn; o.o_hold_down ])
          then Alcotest.failf "Slo.parse accepted %S with a non-finite number" s
        | exception e -> Alcotest.failf "Slo.parse raised %s on %S" (Printexc.to_string e) s
      done)
    [
      "session.retention>=0.95,fast=15,slow=45,hold=15";
      "soak.availability>=0.995";
      "horizon.thruput>=0.5";
    ]

let suite =
  [
    ("mutated platforms never raise", `Quick, test_platform_fuzz);
    ("mutated SLO specs never raise", `Quick, test_slo_fuzz);
  ]
