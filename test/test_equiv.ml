(* Equivalence-fuzz harness: every optimization pass, on every
   representation it supports, must preserve functional equivalence on
   random networks — proven by SAT CEC against a cleaned-up copy of the
   input.

   Budget: 25 pass/representation pairs x 8 seeds = 200 combos per run.
   GENLOG_FUZZ_ITERS=k multiplies the seed set k-fold (the nightly CI job
   uses 10).  A failure prints the seed; replay locally with
   GENLOG_TEST_SEED=<seed>, and set GENLOG_FUZZ_LOG=<file> to append
   failing combos for artifact upload. *)

open Network

let base_seeds = [ 101; 102; 103; 104; 105; 106; 107; 108 ]

(* GENLOG_FUZZ_ITERS widens the sweep; GENLOG_TEST_SEED collapses it to
   one replayed seed (Seed.list). *)
let seeds =
  Seed.list
    (List.concat
       (List.init Seed.fuzz_iters (fun k ->
            List.map (fun s -> s + (1000 * k)) base_seeds)))

let combos = ref 0

let fuzz_log name seed =
  match Sys.getenv_opt "GENLOG_FUZZ_LOG" with
  | None | Some "" -> ()
  | Some path ->
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    Printf.fprintf oc "%s seed=%d\n" name seed;
    close_out oc

(* Run [pass] over random networks and CEC the result against the input.
   [pass] returns the network to check so both in-place passes (return
   the argument) and rebuilding passes (partition) fit.  The sweeping
   engine behind fraig also runs the CEC, so exhaustive simulation of the
   5-input output functions checks each result independently of it. *)
let check_pass (type t) ~name (module N : Intf.NETWORK with type t = t)
    ~(pass : t -> t) () =
  let module G = Gen.Make (N) in
  let module C = Algo.Cec.Make (N) (N) in
  let module Cl = Convert.Cleanup (N) in
  let module S = Algo.Simulate.Make (N) in
  let use_maj = N.max_fanin >= 3 in
  List.iter
    (fun seed ->
      incr combos;
      let t = G.generate ~use_maj ~seed ~num_pis:5 ~num_gates:40 ~num_pos:3 () in
      let reference = Cl.cleanup t in
      let result = pass t in
      (match N.check_integrity result with
      | [] -> ()
      | errs ->
        fuzz_log name seed;
        Alcotest.failf "%s: GENLOG_TEST_SEED=%d integrity: %s" name seed
          (String.concat "; " errs));
      if
        not
          (Array.for_all2 Kitty.Tt.equal
             (S.output_functions reference)
             (S.output_functions result))
      then begin
        fuzz_log name seed;
        Alcotest.failf "%s: GENLOG_TEST_SEED=%d output functions differ" name
          seed
      end;
      match C.check reference result with
      | Algo.Cec.Equivalent -> ()
      | Algo.Cec.Counterexample _ ->
        fuzz_log name seed;
        Alcotest.failf "%s: GENLOG_TEST_SEED=%d produced a counterexample" name
          seed
      | Algo.Cec.Unknown ->
        fuzz_log name seed;
        Alcotest.failf "%s: GENLOG_TEST_SEED=%d cec unknown" name seed)
    seeds

(* Every representation's layer-4 row with its engine env: the row's
   resub kernel and a database over the row's exact-synthesis preset,
   shared by the rewrite, partition and cost suites (warm across seeds). *)
let rows =
  List.map
    (fun (name, rep) ->
      (name, Flow.Engine.representation rep, lazy (Flow.Engine.make_env rep)))
    Flow.Run_config.representations

let row name = List.find (fun (n, _, _) -> n = name) rows

(* One test case per representation, named "<kind> <rep>". *)
let per_rep kind test =
  List.map
    (fun (name, r, env) ->
      Alcotest.test_case (kind ^ " " ^ name) `Quick (test name r env))
    rows

(* -- per-representation pass suites -- *)

let test_rewrite name (module R : Flow.Engine.REPRESENTATION) env () =
  let module Rw = Algo.Rewrite.Make (R.N) in
  check_pass ~name:("rewrite/" ^ name) (module R.N)
    ~pass:(fun t ->
      ignore (Rw.run t ~db:(Lazy.force env).Flow.Engine.db ());
      t)
    ()

let test_resub name (module R : Flow.Engine.REPRESENTATION) _env () =
  let module Rs = Algo.Resub.Make (R.N) in
  check_pass ~name:("resub/" ^ name) (module R.N)
    ~pass:(fun t ->
      ignore (Rs.run t ~kernel:R.kernel ~max_inserted:2 ());
      t)
    ()

let test_refactor name (module R : Flow.Engine.REPRESENTATION) _env () =
  let module Rf = Algo.Refactor.Make (R.N) in
  check_pass ~name:("refactor/" ^ name) (module R.N)
    ~pass:(fun t ->
      ignore (Rf.run t ());
      t)
    ()

let test_balance name (module R : Flow.Engine.REPRESENTATION) _env () =
  let module B = Algo.Balance.Make (R.N) in
  check_pass ~name:("balance/" ^ name) (module R.N)
    ~pass:(fun t ->
      ignore (B.run t);
      t)
    ()

let test_fraig name (module R : Flow.Engine.REPRESENTATION) _env () =
  let module Fr = Algo.Fraig.Make (R.N) in
  check_pass ~name:("fraig/" ^ name) (module R.N)
    ~pass:(fun t ->
      ignore (Fr.run t ());
      t)
    ()

let test_mig_algebraic () =
  check_pass ~name:"mig_algebraic/mig" (module Mig)
    ~pass:(fun t ->
      ignore (Algo.Mig_algebraic.run t ());
      t)
    ()

(* -- the cost dimension: pass x representation x cost x seeds --

   Every non-default objective must (a) stay CEC-equivalent and (b) never
   be accepted with a worsened objective: the whole-pass objective delta,
   measured by [Cost.eval] on cleaned copies, must be <= 0.  A failure
   prints the replay seed augmented with the cost spec. *)

let cost_seeds = Seed.list [ 101; 102 ]
let cost_specs = [ Algo.Cost.Spec.Depth; Algo.Cost.Spec.Edges; Algo.Cost.Spec.Activity ]

let check_pass_cost (type t) ~name ~(spec : Algo.Cost.Spec.t)
    (module N : Intf.NETWORK with type t = t)
    ~(pass : Algo.Cost.Spec.t -> t -> t) () =
  let module G = Gen.Make (N) in
  let module C = Algo.Cec.Make (N) (N) in
  let module Cl = Convert.Cleanup (N) in
  let module Co = Algo.Cost.Make (N) in
  let cost_name = Algo.Cost.Spec.to_string spec in
  let use_maj = N.max_fanin >= 3 in
  List.iter
    (fun seed ->
      incr combos;
      let t = G.generate ~use_maj ~seed ~num_pis:5 ~num_gates:40 ~num_pos:3 () in
      let reference = Cl.cleanup t in
      let before = Co.eval spec reference in
      let result = pass spec t in
      (match N.check_integrity result with
      | [] -> ()
      | errs ->
        fuzz_log name seed;
        Alcotest.failf "%s: GENLOG_TEST_SEED=%d cost=%s integrity: %s" name
          seed cost_name
          (String.concat "; " errs));
      let after = Co.eval spec (Cl.cleanup result) in
      if after > before then begin
        fuzz_log name seed;
        Alcotest.failf "%s: GENLOG_TEST_SEED=%d cost=%s objective worsened (%d -> %d)"
          name seed cost_name before after
      end;
      match C.check reference result with
      | Algo.Cec.Equivalent -> ()
      | Algo.Cec.Counterexample _ ->
        fuzz_log name seed;
        Alcotest.failf "%s: GENLOG_TEST_SEED=%d cost=%s produced a counterexample"
          name seed cost_name
      | Algo.Cec.Unknown ->
        fuzz_log name seed;
        Alcotest.failf "%s: GENLOG_TEST_SEED=%d cost=%s cec unknown" name seed
          cost_name)
    cost_seeds

let cost_pass_instances (rep, (module R : Flow.Engine.REPRESENTATION), env) =
  let module N = R.N in
  let mk pname pass spec =
    Alcotest.test_case
      (Printf.sprintf "%s %s cost=%s" pname rep
         (Algo.Cost.Spec.to_string spec))
      `Quick
      (check_pass_cost
         ~name:(Printf.sprintf "%s/%s" pname rep)
         ~spec
         (module N)
         ~pass)
  in
  List.concat_map
    (fun spec ->
      [
        mk "rewrite"
          (fun cost t ->
            let module Rw = Algo.Rewrite.Make (N) in
            ignore (Rw.run t ~db:(Lazy.force env).Flow.Engine.db ~cost ());
            t)
          spec;
        mk "refactor"
          (fun cost t ->
            let module Rf = Algo.Refactor.Make (N) in
            ignore (Rf.run t ~cost ());
            t)
          spec;
        mk "resub"
          (fun cost t ->
            let module Rs = Algo.Resub.Make (N) in
            ignore (Rs.run t ~kernel:R.kernel ~cost ~max_inserted:2 ());
            t)
          spec;
        mk "balance"
          (fun cost t ->
            let module B = Algo.Balance.Make (N) in
            ignore (B.run ~cost t);
            t)
          spec;
      ])
    cost_specs

let cost_fraig_instances =
  List.map
    (fun spec ->
      Alcotest.test_case
        (Printf.sprintf "fraig aig cost=%s" (Algo.Cost.Spec.to_string spec))
        `Quick
        (check_pass_cost ~name:"fraig/aig" ~spec (module Aig)
           ~pass:(fun cost t ->
             let module Fr = Algo.Fraig.Make (Aig) in
             ignore (Fr.run t ~cost ());
             t)))
    cost_specs

(* 4 passes x 2 representations x 3 costs, plus fraig on aig x 3 costs *)
let cost_combo_instances = (4 * 2 * 3) + 3

(* two workers on the aig suite exercise the cross-domain path; the other
   representations run single-worker (spawning a domain pair per combo is
   pure overhead on small boxes) *)
let test_partition name (module R : Flow.Engine.REPRESENTATION) env () =
  let module P = Flow.Partition.Make (R.N) in
  let jobs = if name = "aig" then 2 else 1 in
  check_pass ~name:("partition/" ^ name) (module R.N)
    ~pass:(fun t ->
      (* tiny cap so 40-gate networks split into several pieces *)
      fst
        (P.run ~size_cap:12 ~jobs ~script:"rw; bz" ~env:(Lazy.force env) t))
    ()

let test_combo_count () =
  (* runs last: every combo above must have executed (Alcotest runs the
     suite sequentially in one process) *)
  let expected =
    (25 * List.length seeds)
    + (cost_combo_instances * List.length cost_seeds)
  in
  Alcotest.(check int) "all pass/rep/seed combos executed" expected !combos

let suite =
  per_rep "rewrite" test_rewrite
  @ per_rep "resub" test_resub
  @ per_rep "refactor" test_refactor
  @ per_rep "balance" test_balance
  @ per_rep "fraig" test_fraig
  @ [ Alcotest.test_case "mig algebraic" `Quick test_mig_algebraic ]
  @ per_rep "partition" test_partition
  @ cost_pass_instances (row "aig")
  @ cost_pass_instances (row "mig")
  @ cost_fraig_instances
  @ [ Alcotest.test_case "combo count" `Quick test_combo_count ]
