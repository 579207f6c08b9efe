(* Tests for the I/O formats: AIGER and BLIF roundtrips are verified by SAT
   equivalence. *)

open Network

module Cec_aa = Algo.Cec.Make (Aig) (Aig)
module Cec_kk = Algo.Cec.Make (Klut) (Klut)

let small_aig () =
  let t = Aig.create () in
  let a = Aig.create_pi t and b = Aig.create_pi t and c = Aig.create_pi t in
  let f = Aig.create_maj t a b c in
  let g = Aig.create_xor t a (Aig.complement b) in
  Aig.create_po t f;
  Aig.create_po t (Aig.complement g);
  t

let roundtrip_aiger t =
  let path = Filename.temp_file "genlog" ".aag" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Lsio.Aiger.write_file t path;
      Lsio.Aiger.read_file path)

let test_aiger_roundtrip () =
  let t = small_aig () in
  let t' = roundtrip_aiger t in
  Alcotest.(check int) "pis" (Aig.num_pis t) (Aig.num_pis t');
  Alcotest.(check int) "pos" (Aig.num_pos t) (Aig.num_pos t');
  Alcotest.(check int) "gates" (Aig.num_gates t) (Aig.num_gates t');
  match Cec_aa.check t t' with
  | Algo.Cec.Equivalent -> ()
  | Algo.Cec.Counterexample _ | Algo.Cec.Unknown ->
    Alcotest.fail "aiger roundtrip not equivalent"

let test_aiger_roundtrip_benchmark () =
  let module S = Lsgen.Suite.Make (Aig) in
  let t = S.build "int2float" in
  let t' = roundtrip_aiger t in
  match Cec_aa.check t t' with
  | Algo.Cec.Equivalent -> ()
  | Algo.Cec.Counterexample _ | Algo.Cec.Unknown ->
    Alcotest.fail "benchmark aiger roundtrip not equivalent"

let test_aiger_rejects_garbage () =
  let path = Filename.temp_file "genlog" ".aag" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not an aiger file\n";
      close_out oc;
      match Lsio.Aiger.read_file path with
      | exception Lsio.Aiger.Parse_error _ -> ()
      | _ -> Alcotest.fail "expected parse error")

let mapped_klut () =
  let module S = Lsgen.Suite.Make (Aig) in
  let module L = Algo.Lutmap.Make (Aig) in
  let t = S.build "ctrl" in
  let m = L.map t ~k:4 () in
  m.L.klut

let test_blif_roundtrip () =
  let k = mapped_klut () in
  let path = Filename.temp_file "genlog" ".blif" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Lsio.Blif.write_file k path;
      let k' = Lsio.Blif.read_file path in
      Alcotest.(check int) "pis" (Klut.num_pis k) (Klut.num_pis k');
      Alcotest.(check int) "pos" (Klut.num_pos k) (Klut.num_pos k');
      match Cec_kk.check k k' with
      | Algo.Cec.Equivalent -> ()
      | Algo.Cec.Counterexample _ | Algo.Cec.Unknown ->
        Alcotest.fail "blif roundtrip not equivalent")

let suite =
  [
    Alcotest.test_case "aiger roundtrip" `Quick test_aiger_roundtrip;
    Alcotest.test_case "aiger roundtrip benchmark" `Quick test_aiger_roundtrip_benchmark;
    Alcotest.test_case "aiger parse error" `Quick test_aiger_rejects_garbage;
    Alcotest.test_case "blif roundtrip" `Quick test_blif_roundtrip;
  ]

(* -- additional coverage -- *)

let test_blif_complemented_po () =
  (* complemented PO signals must roundtrip through the inverter LUT *)
  let open Kitty in
  let t = Klut.create () in
  let a = Klut.create_pi t and b = Klut.create_pi t in
  let f = Klut.create_lut t [| a; b |] Tt.(nth_var 2 0 &: nth_var 2 1) in
  Klut.create_po t (Klut.complement f);
  Klut.create_po t f;
  let path = Filename.temp_file "genlog" ".blif" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Lsio.Blif.write_file t path;
      let t' = Lsio.Blif.read_file path in
      match Cec_kk.check t t' with
      | Algo.Cec.Equivalent -> ()
      | Algo.Cec.Counterexample _ | Algo.Cec.Unknown ->
        Alcotest.fail "complemented-PO blif roundtrip failed")

let test_blif_constant_po () =
  let t = Klut.create () in
  let _a = Klut.create_pi t in
  Klut.create_po t (Klut.constant true);
  Klut.create_po t (Klut.constant false);
  let path = Filename.temp_file "genlog" ".blif" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Lsio.Blif.write_file t path;
      let t' = Lsio.Blif.read_file path in
      Alcotest.(check int) "pos" 2 (Klut.num_pos t'))

let test_aiger_all_benchmarks () =
  (* every suite benchmark roundtrips through AIGER with equal counts *)
  let module S = Lsgen.Suite.Make (Network.Aig) in
  List.iter
    (fun name ->
      let t = S.build name in
      let t' = roundtrip_aiger t in
      Alcotest.(check int) (name ^ " pis") (Aig.num_pis t) (Aig.num_pis t');
      Alcotest.(check int) (name ^ " pos") (Aig.num_pos t) (Aig.num_pos t'))
    [ "adder"; "bar"; "dec"; "priority"; "router"; "ctrl"; "int2float" ]

(* -- round-trip properties: write -> read -> CEC-equal, on random
   networks with shrinkable parameters -- *)

module G = Gen.Make (Aig)

let random_aig (seed, num_gates) =
  G.generate ~seed ~num_pis:5 ~num_gates ~num_pos:3 ()

let with_temp_file ext f =
  let path = Filename.temp_file "genlog" ext in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let prop_aiger_roundtrip =
  QCheck.Test.make ~name:"aiger roundtrip equivalent" ~count:15
    (Gen.arb_params ())
    (fun params ->
      let t = random_aig params in
      let t' = roundtrip_aiger t in
      Cec_aa.check t t' = Algo.Cec.Equivalent)

let prop_blif_roundtrip =
  QCheck.Test.make ~name:"blif roundtrip equivalent" ~count:15
    (Gen.arb_params ())
    (fun params ->
      let t = random_aig params in
      let module L = Algo.Lutmap.Make (Aig) in
      let k = (L.map t ~k:4 ()).L.klut in
      with_temp_file ".blif" (fun path ->
          Lsio.Blif.write_file k path;
          Cec_kk.check k (Lsio.Blif.read_file path) = Algo.Cec.Equivalent))

(* -- hostile AIGER headers: a clean Parse_error, never a Failure or an
   allocation sized by the header -- *)

let bad_field = "aag x 1 0 1 0\n"
let huge_m = "aag 99999999999999 1 0 1 0\n2\n2\n"
let bad_and = "aag 3 2 0 1 1\n2\n4\n6\n6 2\n"
let bad_literal = "aag 3 2 0 1 1\n2\n4\n6\n6 2 x\n"

let with_text ext text f =
  with_temp_file ext (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      f path)

let test_aiger_hostile_headers () =
  List.iter
    (fun (text, want) ->
      with_text ".aag" text (fun path ->
          match Lsio.Aiger.read_file path with
          | exception Lsio.Aiger.Parse_error msg ->
            Alcotest.(check string) (String.escaped text) want msg
          | _ -> Alcotest.fail ("accepted " ^ String.escaped text)))
    [ (bad_field, "bad header field: x"); (bad_and, "bad and line");
      ("aag 1 -1 0 0 0\n", "bad header field: -1");
      ("aag 5 99999999999 0 0 0\n2\n", "unexpected EOF") ];
  (* M only bounds the literals; the tables are sized by what is defined *)
  with_text ".aag" huge_m (fun path ->
      let t = Lsio.Aiger.read_file path in
      Alcotest.(check (pair int int)) "huge M: i/o" (1, 1)
        (Aig.num_pis t, Aig.num_pos t))

(* -- mutation fuzz over both readers: a mutated file either reads as a
   network or raises that reader's [Parse_error], never anything else -- *)

type mutation =
  | Flip of int * int  (* the [i]-th digit (mod their count) becomes [d] *)
  | Insert of int * int  (* a character of [inserted] at a position *)
  | Truncate of int
  | Dup_line of int

let inserted = "0123456789 -.#x\\\n"

let mutate text m =
  let n = String.length text in
  let splice p s = String.sub text 0 p ^ s ^ String.sub text p (n - p) in
  match m with
  | Flip (i, d) ->
    let digits = List.filter (fun p -> text.[p] >= '0' && text.[p] <= '9')
        (List.init n Fun.id) in
    if digits = [] then text
    else
      let p = List.nth digits (i mod List.length digits) in
      String.mapi (fun q c -> if q = p then Char.chr (Char.code '0' + d) else c) text
  | Insert (p, c) ->
    splice (p mod (n + 1)) (String.make 1 inserted.[c mod String.length inserted])
  | Truncate p -> String.sub text 0 (p mod (n + 1))
  | Dup_line l ->
    let lines = String.split_on_char '\n' text in
    let i = l mod List.length lines in
    String.concat "\n"
      (List.concat (List.mapi (fun j x -> if j = i then [ x; x ] else [ x ]) lines))

let arb_mutations =
  let open QCheck.Gen in
  let pos = int_bound 100_000 in
  let mutation =
    oneof
      [ map2 (fun i d -> Flip (i, d)) pos (int_bound 9);
        map2 (fun p c -> Insert (p, c)) pos (int_bound 99);
        map (fun p -> Truncate p) pos;
        map (fun l -> Dup_line l) pos ]
  in
  let print = function
    | Flip (i, d) -> Printf.sprintf "Flip (%d, %d)" i d
    | Insert (p, c) -> Printf.sprintf "Insert (%d, %d)" p c
    | Truncate p -> Printf.sprintf "Truncate %d" p
    | Dup_line l -> Printf.sprintf "Dup_line %d" l
  in
  QCheck.make ~print:(QCheck.Print.list print) (list_size (int_range 1 4) mutation)

(* int2float as AIGER text and its 6-LUT map as BLIF text *)
let fuzz_seeds =
  lazy
    (let module S = Lsgen.Suite.Make (Aig) in
     let module L = Algo.Lutmap.Make (Aig) in
     let aig = S.build "int2float" in
     let text write =
       with_temp_file ".txt" (fun path ->
           write path;
           In_channel.with_open_bin path In_channel.input_all)
     in
     ( text (Lsio.Aiger.write_file aig),
       text (Lsio.Blif.write_file (L.map aig ~k:6 ()).L.klut) ))

let prop_readers_fuzz =
  QCheck.Test.make ~name:"readers: a mutant parses or raises Parse_error"
    ~count:300 arb_mutations (fun muts ->
      let aag, blif = Lazy.force fuzz_seeds in
      let mutant text = List.fold_left mutate text muts in
      (match with_text ".aag" (mutant aag) Lsio.Aiger.read_file with
      | _ | (exception Lsio.Aiger.Parse_error _) -> ());
      (match with_text ".blif" (mutant blif) Lsio.Blif.read_file with
      | _ | (exception Lsio.Blif.Parse_error _) -> ());
      true)

(* A LUT wider than a truth table can hold is a parse error too. *)
let test_blif_wide_names () =
  let names = List.init 21 (Printf.sprintf "i%d") in
  let text =
    Printf.sprintf ".model top\n.inputs %s\n.outputs f\n.names %s f\n%s 1\n.end\n"
      (String.concat " " names) (String.concat " " names) (String.make 21 '1')
  in
  match with_text ".blif" text Lsio.Blif.read_file with
  | exception Lsio.Blif.Parse_error msg ->
    Alcotest.(check string) "message" ".names with 21 inputs (at most 20)" msg
  | _ -> Alcotest.fail "accepted a 21-input .names"

(* The CLI reports a malformed input as `genlog: FILE: msg` with the
   bad-input exit code 2, for each reader; `exact` does the same for a
   malformed truth table.  `opt` reports it as a one-line job failure
   (exit 1), without a backtrace, and a malformed `--script` with exit 2. *)
let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/genlog_cli.exe"

let test_cli_parse_errors () =
  if not (Sys.file_exists cli) then Alcotest.fail ("not built: " ^ cli);
  let run cmd arg =
    with_temp_file ".err" (fun err ->
        let code =
          Sys.command
            (Printf.sprintf "%s %s %s > /dev/null 2> %s" (Filename.quote cli)
               cmd (Filename.quote arg) (Filename.quote err))
        in
        (code, String.trim (In_channel.with_open_bin err In_channel.input_all)))
  in
  List.iter
    (fun (ext, text, msg) ->
      with_text ext text (fun path ->
          Alcotest.(check (pair int string)) (String.escaped text)
            (2, Printf.sprintf "genlog: %s: %s" path msg)
            (run "stats" path)))
    [ (".aag", bad_field, "bad header field: x");
      (".aag", bad_and, "bad and line") ];
  with_text ".aag" huge_m (fun path ->
      Alcotest.(check int) "huge M accepted" 0 (fst (run "stats" path)));
  with_text ".aag" bad_literal (fun path ->
      Alcotest.(check (pair int string)) "opt"
        (1, Printf.sprintf "opt: %s: FAILED: bad literal: x" path)
        (run "opt" path));
  List.iter
    (fun (hex, msg) ->
      Alcotest.(check (pair int string)) (Printf.sprintf "exact %S" hex)
        (2, "genlog: exact: Tt.of_hex: " ^ msg)
        (run "exact" hex))
    [ ("zz", "bad character"); ("abc", "bad length"); ("", "bad length") ];
  (* a LUT width outside [2, Klut.max_fanin] is rejected before mapping *)
  with_text ".aag" huge_m (fun path ->
      List.iter
        (fun k ->
          Alcotest.(check (pair int string)) (Printf.sprintf "map -k %d" k)
            (2, Printf.sprintf "map: -k %d out of [2,16]" k)
            (run (Printf.sprintf "map -k %d" k) path))
        [ 0; 1; 17; 21 ]);
  (* a malformed script is rejected once, before any input is read *)
  with_text ".aag" huge_m (fun path ->
      List.iter
        (fun (script, msg) ->
          Alcotest.(check (pair int string)) (Printf.sprintf "opt -s %S" script)
            (2, "opt: bad --script: " ^ msg)
            (run ("opt -s " ^ Filename.quote script) path))
        [ ("bogus", "unknown command: bogus");
          ("rs -c x", "bad rs -c value: x");
          ("rs -c", "bad rs option: -c");
          ("rs -c 24", "rs -c 24 above 20 leaves") ])

(* A path the CLI cannot read or write is bad input too: exit 2 and one
   line, never an uncaught exception; `opt` reports an unreadable input
   as that job's failure (exit 1). *)
let test_cli_path_errors () =
  if not (Sys.file_exists cli) then Alcotest.fail ("not built: " ^ cli);
  let run args =
    with_temp_file ".err" (fun err ->
        let code =
          Sys.command
            (Printf.sprintf "%s %s > /dev/null 2> %s" (Filename.quote cli)
               (String.concat " " (List.map Filename.quote args))
               (Filename.quote err))
        in
        (code, In_channel.with_open_bin err In_channel.input_all))
  in
  let dir = Filename.get_temp_dir_name () in
  let bad = "/nonexistent/out" in
  (* the exit code, and [line] among the lines of stderr *)
  let expect what (code, line) (code', err) =
    Alcotest.(check (pair int string)) what (code, line)
      (code', if List.mem line (String.split_on_char '\n' err) then line else err)
  in
  List.iter
    (fun args ->
      expect (String.concat " " args)
        (2, Printf.sprintf "genlog: %s: Is a directory" dir)
        (run args))
    [ [ "stats"; dir ]; [ "map"; dir ]; [ "fraig"; dir ]; [ "cec"; dir; dir ] ];
  List.iter
    (fun flag ->
      expect ("report " ^ flag)
        (2, Printf.sprintf "report: %s: Is a directory" dir)
        (run [ "report"; flag; dir ]))
    [ "--trace"; "--bench" ];
  expect "opt DIR" (1, Printf.sprintf "opt: %s: FAILED: Is a directory" dir)
    (run [ "opt"; dir ]);
  with_text ".aag" "aag 1 1 0 1 0\n2\n2\n" (fun path ->
      List.iter
        (fun (args, out) ->
          expect (String.concat " " args)
            (2, Printf.sprintf "genlog: %s: No such file or directory" out)
            (run args))
        [ ([ "opt"; path; "-o"; bad ], bad);
          ([ "opt"; path; "--trace"; bad; "-o"; "/dev/null" ], bad);
          ([ "opt"; path; path; "-o"; bad ^ "/" ], bad ^ "/");
          ([ "map"; path; "-o"; bad ], bad);
          ([ "fraig"; path; "-o"; bad ], bad);
          ([ "gen"; "ctrl"; "-o"; bad ], bad) ])

let extra_suite =
  [
    Alcotest.test_case "aiger hostile headers" `Quick test_aiger_hostile_headers;
    Alcotest.test_case "cli maps parse errors to exit 2" `Quick
      test_cli_parse_errors;
    Alcotest.test_case "cli maps path errors to exit 2" `Quick
      test_cli_path_errors;
    Alcotest.test_case "blif complemented po" `Quick test_blif_complemented_po;
    Alcotest.test_case "blif constant po" `Quick test_blif_constant_po;
    Alcotest.test_case "blif wide names rejected" `Quick test_blif_wide_names;
    Alcotest.test_case "aiger all benchmarks" `Slow test_aiger_all_benchmarks;
    Seed.to_alcotest prop_aiger_roundtrip;
    Seed.to_alcotest prop_blif_roundtrip;
    Seed.to_alcotest prop_readers_fuzz;
  ]

let suite = suite @ extra_suite
