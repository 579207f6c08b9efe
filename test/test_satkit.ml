(* Tests for the CDCL SAT solver, including a brute-force cross-check on
   random small CNFs. *)

open Satkit

let lit v neg = Lit.of_var v ~negated:neg

let test_trivial_sat () =
  let s = Solver.create () in
  Solver.add_clause s [ lit 0 false ];
  Solver.add_clause s [ lit 1 true ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "x0 = true" true (Solver.model_value s 0);
  Alcotest.(check bool) "x1 = false" false (Solver.model_value s 1)

let test_trivial_unsat () =
  let s = Solver.create () in
  Solver.add_clause s [ lit 0 false ];
  Solver.add_clause s [ lit 0 true ];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

let test_implication_chain () =
  let s = Solver.create () in
  (* x0 -> x1 -> ... -> x20, x0, !x20 : unsat *)
  for i = 0 to 19 do
    Solver.add_clause s [ lit i true; lit (i + 1) false ]
  done;
  Solver.add_clause s [ lit 0 false ];
  Solver.add_clause s [ lit 20 true ];
  Alcotest.(check bool) "unsat chain" true (Solver.solve s = Solver.Unsat)

(* Pigeonhole principle: n+1 pigeons in n holes is UNSAT and requires real
   conflict-driven search. *)
let pigeonhole n =
  let s = Solver.create () in
  let var p h = (p * n) + h in
  (* every pigeon in some hole *)
  for p = 0 to n do
    Solver.add_clause s (List.init n (fun h -> lit (var p h) false))
  done;
  (* no two pigeons share a hole *)
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        Solver.add_clause s [ lit (var p1 h) true; lit (var p2 h) true ]
      done
    done
  done;
  Solver.solve s

let test_pigeonhole () =
  Alcotest.(check bool) "php(4,3) unsat" true (pigeonhole 3 = Solver.Unsat);
  Alcotest.(check bool) "php(6,5) unsat" true (pigeonhole 5 = Solver.Unsat)

let test_assumptions () =
  let s = Solver.create () in
  (* (x0 | x1) & (!x0 | x2) *)
  Solver.add_clause s [ lit 0 false; lit 1 false ];
  Solver.add_clause s [ lit 0 true; lit 2 false ];
  Alcotest.(check bool) "sat under x0" true
    (Solver.solve ~assumptions:[ lit 0 false ] s = Solver.Sat);
  Alcotest.(check bool) "x2 forced" true (Solver.model_value s 2);
  Alcotest.(check bool) "unsat under x0 & !x2" true
    (Solver.solve ~assumptions:[ lit 0 false; lit 2 true ] s = Solver.Unsat);
  Alcotest.(check bool) "still sat without assumptions" true
    (Solver.solve s = Solver.Sat)

(* brute force evaluation of a CNF over [n] variables *)
let brute_force_sat n cnf =
  let rec try_assignment a =
    if a >= 1 lsl n then false
    else
      let clause_ok clause =
        List.exists
          (fun l ->
            let v = Lit.var l in
            let value = (a lsr v) land 1 = 1 in
            if Lit.is_neg l then not value else value)
          clause
      in
      if List.for_all clause_ok cnf then true else try_assignment (a + 1)
  in
  try_assignment 0

let prop_random_3sat =
  QCheck.Test.make ~name:"random 3-SAT agrees with brute force" ~count:120
    QCheck.(make Gen.(pair (int_range 3 8) (int_bound 1000000)))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let num_clauses = 2 + Random.State.int rng (4 * n) in
      let cnf =
        List.init num_clauses (fun _ ->
            List.init 3 (fun _ ->
                lit (Random.State.int rng n) (Random.State.bool rng)))
      in
      let s = Solver.create () in
      List.iter (Solver.add_clause s) cnf;
      let expected = brute_force_sat n cnf in
      match Solver.solve s with
      | Solver.Sat ->
        (* verify the model actually satisfies the formula *)
        expected
        && List.for_all
             (fun clause ->
               List.exists
                 (fun l ->
                   let v = Solver.model_value s (Lit.var l) in
                   if Lit.is_neg l then not v else v)
                 clause)
             cnf
      | Solver.Unsat -> not expected
      | Solver.Unknown -> false)

let prop_random_3sat_assumptions =
  QCheck.Test.make
    ~name:"random 3-SAT with assumptions agrees with brute force" ~count:120
    QCheck.(make Gen.(pair (int_range 3 7) (int_bound 1000000)))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let num_clauses = 2 + Random.State.int rng (4 * n) in
      let cnf =
        List.init num_clauses (fun _ ->
            List.init 3 (fun _ ->
                lit (Random.State.int rng n) (Random.State.bool rng)))
      in
      let assumptions =
        List.init 2 (fun _ -> lit (Random.State.int rng n) (Random.State.bool rng))
      in
      let s = Solver.create () in
      List.iter (Solver.add_clause s) cnf;
      (* brute force over the CNF plus the assumptions as unit clauses *)
      let expected =
        brute_force_sat n (cnf @ List.map (fun l -> [ l ]) assumptions)
      in
      match Solver.solve ~assumptions s with
      | Solver.Sat ->
        (* the model must satisfy both the formula and the assumptions *)
        expected
        && List.for_all
             (fun clause ->
               List.exists
                 (fun l ->
                   let v = Solver.model_value s (Lit.var l) in
                   if Lit.is_neg l then not v else v)
                 clause)
             (cnf @ List.map (fun l -> [ l ]) assumptions)
      | Solver.Unsat -> not expected
      | Solver.Unknown -> false)

let test_repeated_solves_with_assumptions () =
  (* the same solver instance must answer a sequence of assumption queries
     correctly (the FRAIG usage pattern) *)
  let s = Solver.create () in
  (* x2 = x0 xor x1 *)
  Solver.add_clause s [ lit 2 true; lit 0 false; lit 1 false ];
  Solver.add_clause s [ lit 2 true; lit 0 true; lit 1 true ];
  Solver.add_clause s [ lit 2 false; lit 0 false; lit 1 true ];
  Solver.add_clause s [ lit 2 false; lit 0 true; lit 1 false ];
  Alcotest.(check bool) "x2 possible" true
    (Solver.solve ~assumptions:[ lit 2 false ] s = Solver.Sat);
  Alcotest.(check bool) "!x2 possible" true
    (Solver.solve ~assumptions:[ lit 2 true ] s = Solver.Sat);
  Alcotest.(check bool) "x2 & x0 & x1 impossible" true
    (Solver.solve ~assumptions:[ lit 2 false; lit 0 false; lit 1 false ] s
    = Solver.Unsat);
  Alcotest.(check bool) "still solvable afterwards" true
    (Solver.solve s = Solver.Sat)

let test_conflict_budget () =
  (* a hard instance with a tiny budget returns Unknown, not a wrong answer *)
  let s = Solver.create () in
  let n = 8 in
  let var p h = (p * n) + h in
  for p = 0 to n do
    Solver.add_clause s (List.init n (fun h -> lit (var p h) false))
  done;
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        Solver.add_clause s [ lit (var p1 h) true; lit (var p2 h) true ]
      done
    done
  done;
  match Solver.solve ~conflict_budget:10 s with
  | Solver.Unknown | Solver.Unsat -> ()
  | Solver.Sat -> Alcotest.fail "php(9,8) cannot be SAT"

(* An intentionally over-eager cadence: reduction and inprocessing fire
   orders of magnitude more often than the defaults, so minimization,
   subsumption, vivification and clause deletion all churn on even tiny
   instances.  Any unsoundness in those paths shows up as a wrong answer
   or an invalid model.  The DIMACS corpus and the telemetry checks run
   under both configs too. *)
let small_intervals =
  { Solver.reduce_interval = 60; Solver.inprocess_interval = 40 }

let configs =
  [ ("default", Solver.default_config); ("small intervals", small_intervals) ]

let prop_minimization_preserves_models =
  QCheck.Test.make
    ~name:"minimization/inprocessing never drops satisfying assignments"
    ~count:150
    QCheck.(make Gen.(pair (int_range 6 11) (int_bound 1000000)))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed + 7 |] in
      let num_clauses = (3 * n) + Random.State.int rng (3 * n) in
      let cnf =
        List.init num_clauses (fun _ ->
            List.init 3 (fun _ ->
                lit (Random.State.int rng n) (Random.State.bool rng)))
      in
      let expected = brute_force_sat n cnf in
      List.for_all
        (fun (_, config) ->
          let s = Solver.create ~config () in
          List.iter (Solver.add_clause s) cnf;
          match Solver.solve s with
          | Solver.Sat ->
            expected
            && List.for_all
                 (fun clause ->
                   List.exists
                     (fun l ->
                       let v = Solver.model_value s (Lit.var l) in
                       if Lit.is_neg l then not v else v)
                     clause)
                 cnf
          | Solver.Unsat -> not expected
          | Solver.Unknown -> false)
        configs)

let suite =
  [
    Alcotest.test_case "trivial sat + model" `Quick test_trivial_sat;
    Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
    Alcotest.test_case "implication chain" `Quick test_implication_chain;
    Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
    Alcotest.test_case "assumptions" `Quick test_assumptions;
    Alcotest.test_case "conflict budget" `Quick test_conflict_budget;
    Seed.to_alcotest prop_random_3sat;
    Seed.to_alcotest prop_random_3sat_assumptions;
    Alcotest.test_case "repeated assumption solves" `Quick test_repeated_solves_with_assumptions;
    Seed.to_alcotest prop_minimization_preserves_models;
  ]
