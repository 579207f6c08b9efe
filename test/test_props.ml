(* Tests for Boolean function properties (Kitty.Props) and DIMACS I/O. *)

open Kitty

let tt_testable = Alcotest.testable Tt.pp Tt.equal

let test_unateness () =
  let a = Tt.nth_var 3 0 and b = Tt.nth_var 3 1 and c = Tt.nth_var 3 2 in
  let f = Tt.(a &: b) in
  Alcotest.(check bool) "and unate" true (Props.is_unate f);
  Alcotest.(check bool) "positive in a" true (Props.unateness_in f 0 = Props.Positive);
  let g = Tt.(~:a &: b) in
  Alcotest.(check bool) "negative in a" true (Props.unateness_in g 0 = Props.Negative);
  let x = Tt.(a ^: b) in
  Alcotest.(check bool) "xor binate" true (Props.unateness_in x 0 = Props.Binate);
  Alcotest.(check bool) "xor not unate" false (Props.is_unate x);
  let m = Tt.maj a b c in
  Alcotest.(check bool) "maj unate" true (Props.is_unate m)

let test_boolean_difference () =
  let a = Tt.nth_var 2 0 and b = Tt.nth_var 2 1 in
  (* d(a&b)/da = b *)
  Alcotest.(check tt_testable) "d(ab)/da" b (Props.boolean_difference Tt.(a &: b) 0);
  (* d(a^b)/da = 1 *)
  Alcotest.(check tt_testable) "d(a^b)/da" (Tt.const1 2)
    (Props.boolean_difference Tt.(a ^: b) 0)

let test_symmetry () =
  let a = Tt.nth_var 3 0 and b = Tt.nth_var 3 1 and c = Tt.nth_var 3 2 in
  let m = Tt.maj a b c in
  Alcotest.(check bool) "maj symmetric ab" true (Props.symmetric_in m 0 1);
  Alcotest.(check bool) "maj totally symmetric" true (Props.is_totally_symmetric m);
  let f = Tt.((a &: b) |: c) in
  Alcotest.(check bool) "ab symmetric" true (Props.symmetric_in f 0 1);
  Alcotest.(check bool) "ac not symmetric" false (Props.symmetric_in f 0 2);
  Alcotest.(check int) "two symmetry classes" 2 (List.length (Props.symmetry_classes f))

let test_top_decomposition () =
  let a = Tt.nth_var 3 0 and b = Tt.nth_var 3 1 and c = Tt.nth_var 3 2 in
  let f = Tt.(a &: (b |: c)) in
  (match Props.top_decompositions f 0 with
  | [ (Props.And_, g) ] -> Alcotest.(check tt_testable) "residue" Tt.(b |: c) g
  | _ -> Alcotest.fail "expected AND decomposition");
  let g = Tt.(a ^: (b &: c)) in
  (match Props.top_decompositions g 0 with
  | [ (Props.Xor_, r) ] -> Alcotest.(check tt_testable) "xor residue" Tt.(b &: c) r
  | _ -> Alcotest.fail "expected XOR decomposition");
  (* no top decomposition for maj in any variable *)
  let m = Tt.maj a b c in
  Alcotest.(check int) "maj not decomposable" 0
    (List.length (Props.top_decompositions m 0))

let prop_symmetry_swap =
  QCheck.Test.make ~name:"symmetric_in agrees with explicit swap" ~count:300
    QCheck.(pair (int_bound 65535) (pair (int_bound 3) (int_bound 3)))
    (fun (v, (i, j)) ->
      let f = Tt.of_int64 4 (Int64.of_int v) in
      Props.symmetric_in f i j = Tt.equal (Tt.swap_vars f i j) f)

let prop_difference_support =
  QCheck.Test.make
    ~name:"boolean difference is 0 iff variable not in support" ~count:300
    QCheck.(pair (int_bound 65535) (int_bound 3))
    (fun (v, i) ->
      let f = Tt.of_int64 4 (Int64.of_int v) in
      Tt.is_const0 (Props.boolean_difference f i) = not (Tt.has_var f i))

(* -- DIMACS -- *)

let test_dimacs_roundtrip () =
  let open Satkit in
  let lit v n = Lit.of_var v ~negated:n in
  let cnf = [ [ lit 0 false; lit 1 true ]; [ lit 2 false ]; [ lit 1 false; lit 2 true; lit 0 true ] ] in
  let path = Filename.temp_file "genlog" ".cnf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dimacs.write_file path ~num_vars:3 cnf;
      let nv, cnf' = Dimacs.read_file path in
      Alcotest.(check int) "vars" 3 nv;
      Alcotest.(check int) "clauses" 3 (List.length cnf');
      Alcotest.(check bool) "same clauses" true (cnf = cnf'))

let test_dimacs_solve () =
  let path = Filename.temp_file "genlog" ".cnf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "c a tiny unsat instance\np cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n";
      close_out oc;
      let s = Satkit.Dimacs.load_file path in
      Alcotest.(check bool) "unsat" true (Satkit.Solver.solve s = Satkit.Solver.Unsat))

let test_dimacs_parse_error () =
  let path = Filename.temp_file "genlog" ".cnf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "p cnf 2 1\n1 x 0\n";
      close_out oc;
      match Satkit.Dimacs.read_file path with
      | exception Satkit.Dimacs.Parse_error _ -> ()
      | _ -> Alcotest.fail "expected parse error")

let suite =
  [
    Alcotest.test_case "unateness" `Quick test_unateness;
    Alcotest.test_case "boolean difference" `Quick test_boolean_difference;
    Alcotest.test_case "symmetry" `Quick test_symmetry;
    Alcotest.test_case "top decomposition" `Quick test_top_decomposition;
    Seed.to_alcotest prop_symmetry_swap;
    Seed.to_alcotest prop_difference_support;
    Alcotest.test_case "dimacs roundtrip" `Quick test_dimacs_roundtrip;
    Alcotest.test_case "dimacs solve" `Quick test_dimacs_solve;
    Alcotest.test_case "dimacs parse error" `Quick test_dimacs_parse_error;
  ]
