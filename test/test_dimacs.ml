(* DIMACS regression suite for the satkit kernel.

   Every instance under [cnf/] is solved with both the legacy and the
   modern solver configuration.  The expected status is encoded in the
   file name ([*_sat.cnf] / [*_unsat.cnf]) and was fixed at generation
   time by brute force or by construction (pigeonhole, contradiction
   cycles).  Answers are not taken on faith:

   - Sat: the model is evaluated against every clause of the file.
   - Unsat: re-solved twice under single-literal assumptions (v and !v
     for the first variable) — both branches must stay unsatisfiable —
     and small instances are additionally brute-forced here. *)

module Solver = Satkit.Solver
module Lit = Satkit.Lit
module Dimacs = Satkit.Dimacs

(* cwd is [_build/default/test] under `dune runtest` (the corpus is
   attached via the dune deps glob) but the project root under
   `dune exec test/main.exe` *)
let cnf_dir = if Sys.file_exists "cnf" then "cnf" else "test/cnf"

let files () =
  if not (Sys.file_exists cnf_dir) then []
  else
    Sys.readdir cnf_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cnf")
    |> List.sort compare

let lit_true solver l =
  let v = Solver.model_value solver (Lit.var l) in
  if Lit.is_neg l then not v else v

let eval_model solver clauses =
  List.for_all (fun clause -> List.exists (lit_true solver) clause) clauses

let brute_force_sat num_vars clauses =
  let sat = ref false in
  let n = 1 lsl num_vars in
  let i = ref 0 in
  while (not !sat) && !i < n do
    let assign = !i in
    if
      List.for_all
        (List.exists (fun l ->
             let bit = (assign lsr Lit.var l) land 1 = 1 in
             if Lit.is_neg l then not bit else bit))
        clauses
    then sat := true;
    incr i
  done;
  !sat

let fresh_solver config num_vars clauses =
  let s = Solver.create ~config () in
  Solver.ensure_var s (num_vars - 1);
  List.iter (Solver.add_clause s) clauses;
  s

let check_file file () =
  let path = Filename.concat cnf_dir file in
  let num_vars, clauses = Dimacs.read_file path in
  let expect_unsat =
    Filename.check_suffix (Filename.remove_extension file) "_unsat"
  in
  List.iter
    (fun (name, config) ->
      let ctx = Printf.sprintf "%s [%s]" file name in
      let s = fresh_solver config num_vars clauses in
      match (Solver.solve s, expect_unsat) with
      | Solver.Unknown, _ -> Alcotest.failf "%s: unknown without budget" ctx
      | Solver.Sat, true -> Alcotest.failf "%s: expected unsat, got sat" ctx
      | Solver.Unsat, false -> Alcotest.failf "%s: expected sat, got unsat" ctx
      | Solver.Sat, false ->
        if not (eval_model s clauses) then
          Alcotest.failf "%s: model does not satisfy the formula" ctx
      | Solver.Unsat, true ->
        (* case-split certification: the instance must stay unsat on both
           branches of the first variable, solved from scratch *)
        let pivot = Lit.make 0 in
        List.iter
          (fun assumption ->
            let s2 = fresh_solver config num_vars clauses in
            match Solver.solve ~assumptions:[ assumption ] s2 with
            | Solver.Unsat -> ()
            | Solver.Sat | Solver.Unknown ->
              Alcotest.failf "%s: branch %d not certified unsat" ctx assumption)
          [ pivot; Lit.neg pivot ];
        if num_vars <= 18 && brute_force_sat num_vars clauses then
          Alcotest.failf "%s: brute force found a model" ctx)
    Test_satkit.configs

let test_all_files_present () =
  (* the corpus is part of the repo; an empty directory means the test
     dependencies were not attached *)
  let n = List.length (files ()) in
  if n < 9 then Alcotest.failf "expected >= 9 cnf files, found %d" n

let suite =
  Alcotest.test_case "corpus present" `Quick test_all_files_present
  :: List.map
       (fun f -> Alcotest.test_case f `Quick (check_file f))
       (files ())
