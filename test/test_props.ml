(* Tests for DIMACS I/O. *)

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
    Alcotest.test_case "dimacs roundtrip" `Quick test_dimacs_roundtrip;
    Alcotest.test_case "dimacs solve" `Quick test_dimacs_solve;
    Alcotest.test_case "dimacs parse error" `Quick test_dimacs_parse_error;
  ]
