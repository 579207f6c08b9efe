(* Tests for the I/O formats: AIGER and BLIF roundtrips are verified by SAT
   equivalence; BENCH and DOT writers by structural sanity. *)

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

let test_bench_writer () =
  let t = small_aig () in
  let module W = Lsio.Bench.Make (Aig) in
  let path = Filename.temp_file "genlog" ".bench" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      W.write_file t path;
      let ic = open_in path in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let contains sub =
        let n = String.length sub and m = String.length content in
        let rec go i = i + n <= m && (String.sub content i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "has inputs" true
        (contains "INPUT(" && contains "OUTPUT(" && contains "AND("))

let test_dot_writer () =
  let t = small_aig () in
  let module W = Lsio.Dot.Make (Aig) in
  let path = Filename.temp_file "genlog" ".dot" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      W.write_file t path;
      let ic = open_in path in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check bool) "digraph" true
        (String.length content > 10 && String.sub content 0 7 = "digraph"))

let suite =
  [
    Alcotest.test_case "aiger roundtrip" `Quick test_aiger_roundtrip;
    Alcotest.test_case "aiger roundtrip benchmark" `Quick test_aiger_roundtrip_benchmark;
    Alcotest.test_case "aiger parse error" `Quick test_aiger_rejects_garbage;
    Alcotest.test_case "blif roundtrip" `Quick test_blif_roundtrip;
    Alcotest.test_case "bench writer" `Quick test_bench_writer;
    Alcotest.test_case "dot writer" `Quick test_dot_writer;
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

let test_bench_writer_klut () =
  let open Kitty in
  let t = Klut.create () in
  let a = Klut.create_pi t and b = Klut.create_pi t and c = Klut.create_pi t in
  let f = Klut.create_lut t [| a; b; c |] (Tt.of_hex 3 "e8") in
  Klut.create_po t f;
  let module W = Lsio.Bench.Make (Klut) in
  let path = Filename.temp_file "genlog" ".bench" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      W.write_file t path;
      let ic = open_in path in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let contains sub =
        let n = String.length sub and m = String.length content in
        let rec go i = i + n <= m && (String.sub content i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "lut line present" true (contains "LUT 0xe8"))

(* -- round-trip properties: write -> read -> CEC-equal, on random
   networks with shrinkable parameters -- *)

module G = Gen.Make (Aig)
module Cec_ak = Algo.Cec.Make (Aig) (Klut)

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

let prop_bench_roundtrip =
  (* the BENCH writer is generic; the reader targets k-LUT networks, so
     the oracle is a cross-representation CEC *)
  QCheck.Test.make ~name:"bench roundtrip equivalent" ~count:15
    (Gen.arb_params ())
    (fun params ->
      let t = random_aig params in
      let module W = Lsio.Bench.Make (Aig) in
      with_temp_file ".bench" (fun path ->
          W.write_file t path;
          Cec_ak.check t (Lsio.Bench.read_file path) = Algo.Cec.Equivalent))

let prop_bench_roundtrip_klut =
  (* LUT lines (hex tables) survive the roundtrip *)
  QCheck.Test.make ~name:"bench roundtrip klut equivalent" ~count:15
    (Gen.arb_params ())
    (fun params ->
      let t = random_aig params in
      let module L = Algo.Lutmap.Make (Aig) in
      let k = (L.map t ~k:4 ()).L.klut in
      let module W = Lsio.Bench.Make (Klut) in
      with_temp_file ".bench" (fun path ->
          W.write_file k path;
          Cec_kk.check k (Lsio.Bench.read_file path) = Algo.Cec.Equivalent))

let test_bench_reader_mig () =
  (* MAJ gates expand to AND/OR in the writer; the reader must still see
     an equivalent function *)
  let module R = Gen.Make (Mig) in
  let module W = Lsio.Bench.Make (Mig) in
  let module C = Algo.Cec.Make (Mig) (Klut) in
  let t =
    R.generate ~use_maj:true ~seed:(Seed.get 33) ~num_pis:5 ~num_gates:40
      ~num_pos:3 ()
  in
  with_temp_file ".bench" (fun path ->
      W.write_file t path;
      match C.check t (Lsio.Bench.read_file path) with
      | Algo.Cec.Equivalent -> ()
      | Algo.Cec.Counterexample _ | Algo.Cec.Unknown ->
        Alcotest.fail "mig bench roundtrip not equivalent")

let test_bench_reader_rejects_garbage () =
  with_temp_file ".bench" (fun path ->
      let oc = open_out path in
      output_string oc "x = FROB(a, b)\n";
      close_out oc;
      match Lsio.Bench.read_file path with
      | exception Lsio.Bench.Parse_error _ -> ()
      | _ -> Alcotest.fail "expected parse error")

(* -- hostile AIGER headers: a clean Parse_error, never a Failure or an
   allocation sized by the header -- *)

let bad_field = "aag x 1 0 1 0\n"
let huge_m = "aag 99999999999999 1 0 1 0\n2\n2\n"
let bad_and = "aag 3 2 0 1 1\n2\n4\n6\n6 2\n"

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

(* The CLI reports a malformed input as `genlog: FILE: msg` with the
   bad-input exit code 2, for each reader. *)
let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/genlog_cli.exe"

let test_cli_parse_errors () =
  if not (Sys.file_exists cli) then Alcotest.fail ("not built: " ^ cli);
  let stats path =
    with_temp_file ".err" (fun err ->
        let code =
          Sys.command
            (Printf.sprintf "%s stats %s > /dev/null 2> %s" (Filename.quote cli)
               (Filename.quote path) (Filename.quote err))
        in
        (code, String.trim (In_channel.with_open_bin err In_channel.input_all)))
  in
  List.iter
    (fun (ext, text, msg) ->
      with_text ext text (fun path ->
          Alcotest.(check (pair int string)) (String.escaped text)
            (2, Printf.sprintf "genlog: %s: %s" path msg)
            (stats path)))
    [ (".aag", bad_field, "bad header field: x");
      (".aag", bad_and, "bad and line") ];
  with_text ".aag" huge_m (fun path ->
      Alcotest.(check int) "huge M accepted" 0 (fst (stats path)))

let extra_suite =
  [
    Alcotest.test_case "aiger hostile headers" `Quick test_aiger_hostile_headers;
    Alcotest.test_case "cli maps parse errors to exit 2" `Quick
      test_cli_parse_errors;
    Alcotest.test_case "blif complemented po" `Quick test_blif_complemented_po;
    Alcotest.test_case "blif constant po" `Quick test_blif_constant_po;
    Alcotest.test_case "aiger all benchmarks" `Slow test_aiger_all_benchmarks;
    Alcotest.test_case "bench writer klut" `Quick test_bench_writer_klut;
    Seed.to_alcotest prop_aiger_roundtrip;
    Seed.to_alcotest prop_blif_roundtrip;
    Seed.to_alcotest prop_bench_roundtrip;
    Seed.to_alcotest prop_bench_roundtrip_klut;
    Alcotest.test_case "bench reader mig" `Quick test_bench_reader_mig;
    Alcotest.test_case "bench reader parse error" `Quick
      test_bench_reader_rejects_garbage;
  ]

let suite = suite @ extra_suite
