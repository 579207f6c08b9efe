(* Tests for the extension features: MIG algebraic depth rewriting and
   the specialized AIG rewriting path. *)

open Kitty
open Network

(* -- MIG algebraic depth rewriting -- *)

let test_mig_algebraic_chain () =
  (* a linear and-chain: maj(0,a,maj(0,b,maj(0,c,d))) has depth 3; the
     associativity rule rebalances it *)
  let t = Mig.create () in
  let a = Mig.create_pi t and b = Mig.create_pi t in
  let c = Mig.create_pi t and d = Mig.create_pi t in
  Mig.create_po t
    (Mig.create_and t a (Mig.create_and t b (Mig.create_and t c d)));
  let module Dm = Algo.Depth.Make (Mig) in
  let module Cm = Algo.Cec.Make (Mig) (Mig) in
  let module Cl = Convert.Cleanup (Mig) in
  let reference = Cl.cleanup t in
  Alcotest.(check int) "initial depth 3" 3 (Dm.depth t);
  let stats = Algo.Mig_algebraic.run t () in
  Alcotest.(check bool) "applied associativity" true
    (stats.Algo.Mig_algebraic.associativity > 0);
  Alcotest.(check bool) "depth reduced" true (Dm.depth t < 3);
  match Cm.check reference t with
  | Algo.Cec.Equivalent -> ()
  | Algo.Cec.Counterexample _ | Algo.Cec.Unknown ->
    Alcotest.fail "mig algebraic rewriting broke the function"

let test_mig_algebraic_adder_depth () =
  (* the paper's flagship MIG result: carry chains get much shallower *)
  let module S = Lsgen.Suite.Make (Mig) in
  let t = S.build "adder" in
  let module Dm = Algo.Depth.Make (Mig) in
  let before = Dm.depth t in
  let gates_before = Mig.num_gates t in
  let _ = Algo.Mig_algebraic.run t ~size_budget:(2 * gates_before) () in
  let after = Dm.depth t in
  Alcotest.(check bool)
    (Printf.sprintf "adder depth %d -> %d" before after)
    true (after < before);
  match Mig.check_integrity t with
  | [] -> ()
  | errs -> Alcotest.failf "integrity: %s" (String.concat "; " errs)

let test_mig_algebraic_random_preserves () =
  let module Cm = Algo.Cec.Make (Mig) (Mig) in
  let module Cl = Convert.Cleanup (Mig) in
  let rng_seeds = Seed.list [ 11; 12; 13 ] in
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let t = Mig.create () in
      let signals = ref [] in
      for _ = 1 to 5 do
        signals := Mig.create_pi t :: !signals
      done;
      let pick () =
        let l = !signals in
        Mig.complement_if (Random.State.bool rng)
          (List.nth l (Random.State.int rng (List.length l)))
      in
      for _ = 1 to 40 do
        signals := Mig.create_maj t (pick ()) (pick ()) (pick ()) :: !signals
      done;
      for _ = 1 to 3 do
        Mig.create_po t (pick ())
      done;
      let reference = Cl.cleanup t in
      let _ = Algo.Mig_algebraic.run t () in
      (match Mig.check_integrity t with
      | [] -> ()
      | errs -> Alcotest.failf "seed %d integrity: %s" seed (String.concat "; " errs));
      match Cm.check reference t with
      | Algo.Cec.Equivalent -> ()
      | Algo.Cec.Counterexample _ | Algo.Cec.Unknown ->
        Alcotest.failf "seed %d: function changed" seed)
    rng_seeds

(* -- specialized AIG rewriting (layer 4) -- *)

let test_specialized_cut_functions () =
  (* the packed-int cut enumeration computes the same functions as the
     generic one: compare against full simulation *)
  let module S = Lsgen.Suite.Make (Aig) in
  let module Sim = Algo.Simulate.Make (Aig) in
  let t = S.build "ctrl" in
  let cuts = Algo.Rewrite_aig.enumerate t ~cut_limit:8 in
  let values = Sim.simulate_exhaustive t in
  Aig.foreach_gate t (fun n ->
      List.iter
        (fun (cut : Algo.Rewrite_aig.cut) ->
          let k = Array.length cut.Algo.Rewrite_aig.leaves in
          let mask = (1 lsl (1 lsl k)) - 1 in
          let f = Algo.Rewrite_aig.tt_of_int k (cut.Algo.Rewrite_aig.tt land mask) in
          let args = Array.map (fun l -> values.(l)) cut.Algo.Rewrite_aig.leaves in
          let recomposed = Tt.apply f args in
          if not (Tt.equal recomposed values.(n)) then
            Alcotest.failf "specialized cut function wrong at node %d" n)
        cuts.(n))

let test_specialized_rewrite_preserves () =
  let module S = Lsgen.Suite.Make (Aig) in
  let module C = Algo.Cec.Make (Aig) (Aig) in
  let module Cl = Convert.Cleanup (Aig) in
  let t = S.build "int2float" in
  let reference = Cl.cleanup t in
  let db = Exact.Database.create Exact.Synth.aig_config in
  let gain = Algo.Rewrite_aig.run t ~db () in
  Alcotest.(check bool) "some gain" true (gain > 0);
  match C.check reference t with
  | Algo.Cec.Equivalent -> ()
  | Algo.Cec.Counterexample _ | Algo.Cec.Unknown ->
    Alcotest.fail "specialized rewrite broke the function"

let suite =
  [
    Alcotest.test_case "mig algebraic: and-chain" `Quick test_mig_algebraic_chain;
    Alcotest.test_case "mig algebraic: adder depth" `Quick test_mig_algebraic_adder_depth;
    Alcotest.test_case "mig algebraic preserves function" `Slow test_mig_algebraic_random_preserves;
    Alcotest.test_case "specialized cut functions" `Quick test_specialized_cut_functions;
    Alcotest.test_case "specialized rewrite preserves" `Quick test_specialized_rewrite_preserves;
  ]

(* -- FRAIG functional reduction -- *)

let test_fraig_merges_duplicates () =
  (* two structurally different, functionally equal cones: xor as
     and/or-mix vs the mux form — structural hashing cannot merge them,
     SAT sweeping must *)
  let t = Aig.create () in
  let a = Aig.create_pi t and b = Aig.create_pi t in
  let x1 =
    Aig.create_and t (Aig.create_or t a b) (Aig.complement (Aig.create_and t a b))
  in
  let x2 = Aig.create_ite t a (Aig.complement b) b in
  Aig.create_po t x1;
  Aig.create_po t x2;
  let module Cl = Convert.Cleanup (Aig) in
  let reference = Cl.cleanup t in
  let module Fr = Algo.Fraig.Make (Aig) in
  let stats = Fr.run t () in
  Alcotest.(check bool) "at least one merge" true (stats.Fr.proved >= 1);
  let module ClA = Convert.Cleanup (Aig) in
  let t' = ClA.cleanup t in
  Alcotest.(check bool) "gates reduced" true
    (Aig.num_gates t' < Aig.num_gates reference);
  Alcotest.(check int) "outputs now share a node"
    (Aig.node_of_signal (Aig.po_at t 0))
    (Aig.node_of_signal (Aig.po_at t 1));
  let module C = Algo.Cec.Make (Aig) (Aig) in
  match C.check reference t with
  | Algo.Cec.Equivalent -> ()
  | Algo.Cec.Counterexample _ | Algo.Cec.Unknown ->
    Alcotest.fail "fraig broke the function"

let test_fraig_constant_detection () =
  (* a node that is constant for non-obvious reasons: (a & b) & (a ^ b) = 0 *)
  let t = Aig.create () in
  let a = Aig.create_pi t and b = Aig.create_pi t in
  let f = Aig.create_and t (Aig.create_and t a b) (Aig.create_xor t a b) in
  Aig.create_po t f;
  let module Fr = Algo.Fraig.Make (Aig) in
  let _ = Fr.run t () in
  Alcotest.(check int) "po is constant false" (Aig.constant false) (Aig.po_at t 0)

let test_fraig_preserves_random () =
  let module Fr = Algo.Fraig.Make (Xag) in
  let module C = Algo.Cec.Make (Xag) (Xag) in
  let module Cl = Convert.Cleanup (Xag) in
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let t = Xag.create () in
      let signals = ref [] in
      for _ = 1 to 5 do
        signals := Xag.create_pi t :: !signals
      done;
      let pick () =
        Xag.complement_if (Random.State.bool rng)
          (List.nth !signals (Random.State.int rng (List.length !signals)))
      in
      for _ = 1 to 60 do
        let s =
          if Random.State.bool rng then Xag.create_and t (pick ()) (pick ())
          else Xag.create_xor t (pick ()) (pick ())
        in
        signals := s :: !signals
      done;
      for _ = 1 to 4 do
        Xag.create_po t (pick ())
      done;
      let reference = Cl.cleanup t in
      let _ = Fr.run t () in
      (match Xag.check_integrity t with
      | [] -> ()
      | errs -> Alcotest.failf "seed %d integrity: %s" seed (String.concat "; " errs));
      match C.check reference t with
      | Algo.Cec.Equivalent -> ()
      | Algo.Cec.Counterexample _ | Algo.Cec.Unknown ->
        Alcotest.failf "fraig/xag seed %d: function changed" seed)
    (Seed.list [ 31; 32; 33; 34 ])

let test_fraig_in_script () =
  let module S = Lsgen.Suite.Make (Aig) in
  let module F = Flow.Engine.Make (Aig) in
  let module C = Algo.Cec.Make (Aig) (Aig) in
  let t = S.build "ctrl" in
  let module Cl = Convert.Cleanup (Aig) in
  let reference = Cl.cleanup t in
  let env = Flow.Engine.make_env Flow.Run_config.Aig in
  let optimized = F.run_script env t "fraig; rw; fraig" in
  match C.check reference optimized with
  | Algo.Cec.Equivalent -> ()
  | Algo.Cec.Counterexample _ | Algo.Cec.Unknown ->
    Alcotest.fail "fraig script step broke the function"

let fraig_suite =
  [
    Alcotest.test_case "fraig merges duplicates" `Quick test_fraig_merges_duplicates;
    Alcotest.test_case "fraig constant detection" `Quick test_fraig_constant_detection;
    Alcotest.test_case "fraig preserves (xag, random)" `Slow test_fraig_preserves_random;
    Alcotest.test_case "fraig in a script" `Quick test_fraig_in_script;
  ]

let suite = suite @ fraig_suite
