(* Tests for the plain-text platform format used by the CLI. *)

let test_roundtrip () =
  List.iter
    (fun (name, p) ->
      let text = Platform_io.to_string p in
      match Platform_io.of_string text with
      | Error e -> Alcotest.failf "%s: parse failed: %s" name e
      | Ok p' ->
        Alcotest.(check int) (name ^ " nodes") (Platform.n_nodes p) (Platform.n_nodes p');
        Alcotest.(check int)
          (name ^ " edges")
          (Digraph.n_edges p.Platform.graph)
          (Digraph.n_edges p'.Platform.graph);
        Alcotest.(check (list int)) (name ^ " targets") p.Platform.targets p'.Platform.targets;
        Alcotest.(check int) (name ^ " source") p.Platform.source p'.Platform.source;
        Digraph.iter_edges
          (fun e ->
            Alcotest.(check bool) (name ^ " edge cost kept") true
              (Rat.equal e.Digraph.cost
                 (Digraph.cost p'.Platform.graph ~src:e.Digraph.src ~dst:e.Digraph.dst)))
          p.Platform.graph;
        Alcotest.(check string) (name ^ " labels kept")
          (Digraph.label p.Platform.graph p.Platform.source)
          (Digraph.label p'.Platform.graph p'.Platform.source))
    [
      ("fig1", Paper_platforms.fig1 ());
      ("fig4", Paper_platforms.fig4 ());
      ("two_relay", Paper_platforms.two_relay ());
      ( "tiers",
        let rng = Random.State.make [| 6 |] in
        Tiers.generate rng Tiers.small_params ~n_targets:5 );
    ]

let test_parse_minimal () =
  let text = "# comment\nnodes 3\nsource 0\ntargets 2\nedge 0 1 1/2\nedge 1 2 3\n" in
  match Platform_io.of_string text with
  | Error e -> Alcotest.fail e
  | Ok p ->
    Alcotest.(check int) "nodes" 3 (Platform.n_nodes p);
    Alcotest.(check bool) "cost parsed" true
      (Rat.equal (Rat.of_ints 1 2) (Digraph.cost p.Platform.graph ~src:0 ~dst:1))

let test_parse_errors () =
  let bad text =
    match Platform_io.of_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted bad input: %s" text
  in
  bad "";
  bad "nodes 3\nsource 0\n";
  bad "nodes 3\ntargets 1\n";
  bad "nodes 3\nsource 0\ntargets 1\nedge 0 9 1\n";
  bad "nodes 3\nsource 0\ntargets 1\nbogus directive\n";
  bad "nodes 3\nsource 0\ntargets 0\n" (* source cannot be target *)

(* Malformed input must come back as [Error] citing the offending line —
   never as an escaped exception. *)
let test_error_line_numbers () =
  let expect_line text line =
    match Platform_io.of_string text with
    | Ok _ -> Alcotest.failf "accepted bad input: %s" text
    | Error e ->
      let prefix = Printf.sprintf "line %d:" line in
      Alcotest.(check bool)
        (Printf.sprintf "error %S cites line %d" e line)
        true
        (String.length e >= String.length prefix
        && String.sub e 0 (String.length prefix) = prefix)
  in
  expect_line "nodes abc\n" 1;
  expect_line "nodes 3\nsource zero\n" 2;
  expect_line "nodes 3\nsource 0\ntargets 1\nedge 0 1 abc\n" 4;
  expect_line "nodes 3\nsource 0\ntargets 1\nedge 0 1 2\nedge 0 9 1\n" 5;
  expect_line "nodes 3\nsource 0\ntargets 1\nlabel 7 far\n" 4;
  expect_line "nodes 3\nnodes 4\n" 2;
  expect_line "nodes 3\nsource 0\ntargets 1\ntargets 2\n" 4;
  expect_line "nodes 3\nsource 0\ntargets 1\nedge 0 1 2\nedge 0 1 3\n" 5;
  expect_line "nodes 3\nsource 0\ntargets 1\nedge 1 1 2\n" 4;
  (* The source and targets cite their own lines, wherever they sit. *)
  expect_line "source 5\nnodes 3\ntargets 1\n" 1;
  expect_line "nodes 3\nsource 0\n\ntargets 1 7\n" 4;
  expect_line "nodes 3\ntargets -1\nsource 0\n" 2;
  (* So does a source listed among the targets. *)
  expect_line "nodes 3\nsource 1\ntargets 1 2\nedge 1 2 1\n" 3;
  expect_line "nodes 3\ntargets 2 0\nsource 0\n" 2;
  (* A node count above the limit is refused before anything is
     allocated: [max_int] used to escape as [Invalid_argument]. *)
  expect_line (Printf.sprintf "nodes %d\nsource 0\ntargets 1\n" max_int) 1;
  expect_line "nodes 100001\nsource 0\ntargets 1\n" 1

(* Every load failure comes back as an [Error] that starts with the path
   and names it exactly once. *)
let expect_located_error path =
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let prefix = path ^ ": " in
  match Platform_io.load path with
  | Ok _ -> Alcotest.failf "loading %s must be an Error" path
  | Error e ->
    Alcotest.(check bool) (e ^ " starts with the path") true (String.starts_with ~prefix e);
    let rest = String.sub e (String.length prefix) (String.length e - String.length prefix) in
    Alcotest.(check bool) (e ^ " names the path once") false (contains rest path)

let test_load_missing_file () = expect_located_error "/nonexistent/mcast-platform.txt"

let test_load_directory_and_malformed () =
  let dir = Filename.temp_dir "mcast" "" in
  let bad = Filename.temp_file "mcast" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Sys.rmdir dir;
      Sys.remove bad)
    (fun () ->
      expect_located_error dir;
      Out_channel.with_open_text bad (fun oc -> output_string oc "nodes 3\nsource x\n");
      expect_located_error bad)

let test_file_io () =
  let p = Paper_platforms.two_relay () in
  let path = Filename.temp_file "mcast" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Platform_io.save path p;
      match Platform_io.load path with
      | Ok p' -> Alcotest.(check int) "roundtrip via file" 5 (Platform.n_nodes p')
      | Error e -> Alcotest.fail e)

let suite =
  [
    ("roundtrip", `Quick, test_roundtrip);
    ("parse minimal", `Quick, test_parse_minimal);
    ("parse errors", `Quick, test_parse_errors);
    ("errors cite line numbers", `Quick, test_error_line_numbers);
    ("load missing file", `Quick, test_load_missing_file);
    ("load directory and malformed file", `Quick, test_load_directory_and_malformed);
    ("file io", `Quick, test_file_io);
  ]
