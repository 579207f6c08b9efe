(* Tests for the generic algorithm layer: depth, simulation, cuts,
   windows, rewriting, resubstitution, refactoring, balancing, LUT mapping
   and CEC.  The central invariant — every optimization pass preserves
   functional equivalence — is checked with SAT CEC on randomly generated
   networks for every representation. *)

open Kitty
open Network

let tt_testable = Alcotest.testable Tt.pp Tt.equal

module Sim_aig = Algo.Simulate.Make (Aig)
module Depth_aig = Algo.Depth.Make (Aig)
module Cuts_aig = Algo.Cuts.Make (Aig)
module Mffc_aig = Algo.Mffc.Make (Aig)
module Reconv_aig = Algo.Reconv.Make (Aig)
module Cec_aig = Algo.Cec.Make (Aig) (Aig)

(* -- helpers -- *)

(* a & (b & (c & d)) with an xor output for spice *)
let sample_aig () =
  let t = Aig.create () in
  let a = Aig.create_pi t and b = Aig.create_pi t in
  let c = Aig.create_pi t and d = Aig.create_pi t in
  let cd = Aig.create_and t c d in
  let bcd = Aig.create_and t b cd in
  let abcd = Aig.create_and t a bcd in
  Aig.create_po t abcd;
  (t, (a, b, c, d))

(* Random networks come from the shared [Gen] module (test/gen.ml); seeds
   route through [Seed] so GENLOG_TEST_SEED can replay a failure. *)

(* -- depth (paper Algorithm 1) -- *)

let test_depth () =
  let t, _ = sample_aig () in
  Alcotest.(check int) "chain depth 3" 3 (Depth_aig.depth t)

(* -- simulation -- *)

let test_simulate () =
  let t = Aig.create () in
  let a = Aig.create_pi t and b = Aig.create_pi t and c = Aig.create_pi t in
  Aig.create_po t (Aig.create_maj t a b c);
  Aig.create_po t (Aig.complement (Aig.create_xor t a b));
  let outs = Sim_aig.output_functions t in
  Alcotest.(check tt_testable) "maj" (Tt.of_hex 3 "e8") outs.(0);
  Alcotest.(check tt_testable) "xnor"
    Tt.(~:(nth_var 3 0 ^: nth_var 3 1))
    outs.(1)

(* -- cuts -- *)

let test_cuts () =
  let t, _ = sample_aig () in
  let r = Cuts_aig.enumerate t ~k:4 ~cut_limit:8 () in
  let root = Aig.node_of_signal (Aig.po_at t 0) in
  let cuts = Cuts_aig.cuts_of r root in
  (* the 4-leaf cut {a,b,c,d} must be present with function a&b&c&d *)
  let found =
    List.exists
      (fun cut ->
        Array.length cut.Cuts_aig.leaves = 4
        && Tt.equal cut.Cuts_aig.tt
             Tt.(nth_var 4 0 &: nth_var 4 1 &: nth_var 4 2 &: nth_var 4 3))
      cuts
  in
  Alcotest.(check bool) "4-and cut found" true found;
  (* every cut function must agree with the root function restricted to the
     cut leaves: verify via full simulation *)
  let values = Sim_aig.simulate_exhaustive t in
  List.iter
    (fun cut ->
      let args = Array.map (fun l -> values.(l)) cut.Cuts_aig.leaves in
      let recomposed = Tt.apply cut.Cuts_aig.tt args in
      Alcotest.(check tt_testable) "cut function correct" values.(root) recomposed)
    cuts

let test_cut_count_limit () =
  let module R = Gen.Make (Aig) in
  let t = R.generate ~seed:(Seed.get 7) ~num_pis:6 ~num_gates:60 ~num_pos:4 () in
  let r = Cuts_aig.enumerate t ~k:4 ~cut_limit:6 () in
  Aig.foreach_gate t (fun n ->
      let c = List.length (Cuts_aig.cuts_of r n) in
      if c > 6 then Alcotest.failf "node %d has %d cuts" n c)

(* -- MFFC -- *)

let test_mffc () =
  let t, _ = sample_aig () in
  let root = Aig.node_of_signal (Aig.po_at t 0) in
  Alcotest.(check int) "mffc of root covers the whole chain" 3
    (Mffc_aig.size t root);
  let leaves = Mffc_aig.leaves t root in
  Alcotest.(check int) "4 leaves" 4 (List.length leaves)

(* -- reconvergence-driven cuts -- *)

let test_reconv () =
  let t = Aig.create () in
  let a = Aig.create_pi t and b = Aig.create_pi t and c = Aig.create_pi t in
  (* reconvergent: f = (a&b) | (a&c) *)
  let ab = Aig.create_and t a b in
  let ac = Aig.create_and t a c in
  let f = Aig.create_or t ab ac in
  Aig.create_po t f;
  let leaves = Reconv_aig.compute t ~max_leaves:8 (Aig.node_of_signal f) in
  (* expansion should reach the PIs: {a, b, c} *)
  Alcotest.(check int) "3 leaves" 3 (Array.length leaves);
  Array.iter
    (fun l -> Alcotest.(check bool) "leaf is pi" true (Aig.is_pi t l))
    leaves

(* -- equivalence framework -- *)

let cec_equal name a b =
  match Cec_aig.check a b with
  | Algo.Cec.Equivalent -> ()
  | Algo.Cec.Counterexample _ -> Alcotest.fail (name ^ ": counterexample found")
  | Algo.Cec.Unknown -> Alcotest.fail (name ^ ": cec unknown")

(* Outputs of [t] under one input assignment, by simulation: a
   counterexample is checked without trusting the solver that found it. *)
let outputs_at (type t) (module N : Intf.TRAVERSABLE with type t = t) (t : t)
    cex =
  let module S = Algo.Simulate.Make (N) in
  S.output_values t
    (S.simulate t
       (Array.map (fun v -> if v then Tt.const1 0 else Tt.const0 0) cex))

let expect_cex (type a b) name (module A : Intf.TRAVERSABLE with type t = a)
    (module B : Intf.TRAVERSABLE with type t = b) (a : a) (b : b) = function
  | Algo.Cec.Counterexample cex ->
    Alcotest.(check bool) (name ^ ": cex distinguishes") false
      (Array.for_all2 Tt.equal (outputs_at (module A) a cex)
         (outputs_at (module B) b cex))
  | Algo.Cec.Equivalent | Algo.Cec.Unknown ->
    Alcotest.fail (name ^ ": expected cex")

let test_cec_basic () =
  let t1, _ = sample_aig () in
  let t2 = Aig.create () in
  let a = Aig.create_pi t2 and b = Aig.create_pi t2 in
  let c = Aig.create_pi t2 and d = Aig.create_pi t2 in
  (* balanced version of the same function *)
  Aig.create_po t2 (Aig.create_and t2 (Aig.create_and t2 a b) (Aig.create_and t2 c d));
  cec_equal "balanced vs chain" t1 t2;
  (* a genuinely different function must yield a valid counterexample *)
  let t3 = Aig.create () in
  let a3 = Aig.create_pi t3 and b3 = Aig.create_pi t3 in
  let c3 = Aig.create_pi t3 and d3 = Aig.create_pi t3 in
  Aig.create_po t3 (Aig.create_and t3 (Aig.create_or t3 a3 b3) (Aig.create_and t3 c3 d3));
  let r = Cec_aig.check t1 t3 in
  (match r with
  | Algo.Cec.Counterexample cex ->
    Alcotest.(check int) "cex width" 4 (Array.length cex)
  | Algo.Cec.Equivalent | Algo.Cec.Unknown -> ());
  expect_cex "chain vs or" (module Aig) (module Aig) t1 t3 r;
  (* a 20-input AND against constant 0: random simulation cannot tell
     them apart, so the counterexample comes from the solver *)
  let wide = Aig.create () and zero = Aig.create () in
  let xs = List.init 20 (fun _ -> Aig.create_pi wide) in
  Aig.create_po wide (Aig.create_nary_and wide xs);
  for _ = 1 to 20 do ignore (Aig.create_pi zero) done;
  Aig.create_po zero (Aig.constant false);
  expect_cex "and20 vs 0" (module Aig) (module Aig) wide zero
    (Cec_aig.check wide zero);
  (* across representations: an AIG against the LUT mapping of a copy
     whose first output is complemented *)
  let module R = Gen.Make (Aig) in
  let module L = Algo.Lutmap.Make (Aig) in
  let module Cp = Convert.Make (Aig) (Aig) in
  let module Cx = Algo.Cec.Make (Aig) (Klut) in
  let t = R.generate ~seed:(Seed.get 23) ~num_pis:6 ~num_gates:60 ~num_pos:3 () in
  let bad = Aig.create () in
  let pis = Array.init (Aig.num_pis t) (fun _ -> Aig.create_pi bad) in
  Array.iteri
    (fun i s -> Aig.create_po bad (Aig.complement_if (i = 0) s))
    (Cp.instantiate bad t pis);
  let k = (L.map bad ~k:4 ()).L.klut in
  expect_cex "aig vs klut" (module Aig) (module Klut) t k (Cx.check t k)

let test_cec_cross_representation () =
  let module Conv = Convert.Make (Aig) (Mig) in
  let module Cec_am = Algo.Cec.Make (Aig) (Mig) in
  let module R = Gen.Make (Aig) in
  let t = R.generate ~seed:(Seed.get 21) ~num_pis:5 ~num_gates:40 ~num_pos:3 () in
  let m = Conv.convert t in
  (match Cec_am.check t m with
  | Algo.Cec.Equivalent -> ()
  | Algo.Cec.Counterexample _ | Algo.Cec.Unknown ->
    Alcotest.fail "aig->mig conversion not equivalent")

(* -- balancing -- *)

let test_balance_reduces_depth () =
  let t, _ = sample_aig () in
  let before = Aig.num_gates t in
  let module B = Algo.Balance.Make (Aig) in
  let t_ref, _ = sample_aig () in
  (* a depth-only rebalance frees no gate: its gain is 0 *)
  let gain = B.run t in
  Alcotest.(check bool) "gain never negative" true (gain >= 0);
  Alcotest.(check int) "depth reduced to 2" 2 (Depth_aig.depth t);
  Alcotest.(check bool) "no size increase" true (Aig.num_gates t <= before);
  cec_equal "balance preserves function" t_ref t

let test_balance_mig () =
  (* an or-chain in a MIG: maj(1, a, maj(1, b, maj(1, c, d))) *)
  let t = Mig.create () in
  let a = Mig.create_pi t and b = Mig.create_pi t in
  let c = Mig.create_pi t and d = Mig.create_pi t in
  Mig.create_po t (Mig.create_or t a (Mig.create_or t b (Mig.create_or t c d)));
  let module Dm = Algo.Depth.Make (Mig) in
  let module Bm = Algo.Balance.Make (Mig) in
  let module Cm = Algo.Cec.Make (Mig) (Mig) in
  let t_ref = Mig.create () in
  let a' = Mig.create_pi t_ref and b' = Mig.create_pi t_ref in
  let c' = Mig.create_pi t_ref and d' = Mig.create_pi t_ref in
  Mig.create_po t_ref
    (Mig.create_or t_ref a' (Mig.create_or t_ref b' (Mig.create_or t_ref c' d')));
  Alcotest.(check int) "initial depth 3" 3 (Dm.depth t);
  ignore (Bm.run t);
  Alcotest.(check int) "balanced depth 2" 2 (Dm.depth t);
  (match Cm.check t_ref t with
  | Algo.Cec.Equivalent -> ()
  | Algo.Cec.Counterexample _ | Algo.Cec.Unknown ->
    Alcotest.fail "mig balance broke the function")

(* -- rewriting -- *)

let test_rewrite_reduces () =
  (* redundant structure and(a, and(a, b)): the {a,b} cut computes a&b, so
     the database replacement is the inner gate itself — gain 1 through
     DAG-aware sharing *)
  let t = Aig.create () in
  let a = Aig.create_pi t and b = Aig.create_pi t in
  let t1 = Aig.create_and t a b in
  let t2 = Aig.create_and t a t1 in
  Aig.create_po t t2;
  let module Cl = Convert.Cleanup (Aig) in
  let t_ref = Cl.cleanup t in
  let module Rw = Algo.Rewrite.Make (Aig) in
  let db = Exact.Database.create Exact.Synth.aig_config in
  let before = Aig.num_gates t in
  let gain = Rw.run t ~db () in
  Alcotest.(check bool) "gain positive" true (gain > 0);
  Alcotest.(check bool) "fewer gates" true (Aig.num_gates t < before);
  cec_equal "rewrite preserves function" t_ref t

(* -- resubstitution -- *)

let test_resub_shares () =
  (* f = (a&b)|(a&c) with divisor (b|c) available: and 1-resub finds
     f = a & (b|c), freeing two gates for one *)
  let t = Aig.create () in
  let a = Aig.create_pi t and b = Aig.create_pi t and c = Aig.create_pi t in
  let ab = Aig.create_and t a b in
  let ac = Aig.create_and t a c in
  let f = Aig.create_or t ab ac in
  let bc = Aig.create_or t b c in
  Aig.create_po t f;
  Aig.create_po t bc;
  let module C = Convert.Cleanup (Aig) in
  let t_ref = C.cleanup t in
  let module Rs = Algo.Resub.Make (Aig) in
  let before = Aig.num_gates t in
  let gain = Rs.run t ~kernel:Algo.Resub.And_or () in
  Alcotest.(check bool) "resubstituted" true (gain > 0);
  Alcotest.(check bool) "fewer gates" true (Aig.num_gates t < before);
  cec_equal "resub preserves function" t_ref t

(* -- refactoring -- *)

let test_refactor_reduces () =
  (* a redundant sum-of-products cone: f = ab + ab' (= a), built literally;
     the collapsed MFFC function is the projection a *)
  let t = Aig.create () in
  let a = Aig.create_pi t and b = Aig.create_pi t in
  let ab = Aig.create_and t a b in
  let ab' = Aig.create_and t a (Aig.complement b) in
  let f = Aig.create_or t ab ab' in
  Aig.create_po t f;
  let module C = Convert.Cleanup (Aig) in
  let t_ref = C.cleanup t in
  let module Rf = Algo.Refactor.Make (Aig) in
  let gain = Rf.run t () in
  Alcotest.(check bool) "refactored" true (gain > 0);
  Alcotest.(check int) "collapsed to a wire" 0 (Aig.num_gates t);
  Alcotest.(check int) "po = a" a (Aig.po_at t 0);
  cec_equal "refactor preserves function" t_ref t

(* -- LUT mapping -- *)

let test_lutmap () =
  let module R = Gen.Make (Aig) in
  let module L = Algo.Lutmap.Make (Aig) in
  let module Cx = Algo.Cec.Make (Aig) (Klut) in
  let t = R.generate ~seed:(Seed.get 3) ~num_pis:6 ~num_gates:80 ~num_pos:4 () in
  let m = L.map t ~k:6 () in
  Alcotest.(check bool) "mapping nonempty" true (m.L.lut_count > 0);
  Alcotest.(check bool) "fewer luts than gates" true
    (m.L.lut_count <= Aig.num_gates t);
  (match Cx.check t m.L.klut with
  | Algo.Cec.Equivalent -> ()
  | Algo.Cec.Counterexample _ | Algo.Cec.Unknown ->
    Alcotest.fail "lut mapping not equivalent");
  (* every LUT respects the fanin bound *)
  Klut.foreach_gate m.L.klut (fun n ->
      Alcotest.(check bool) "lut arity <= 6" true (Klut.fanin_size m.L.klut n <= 6))

(* -- equivalence preservation on random networks, all passes, all reps -- *)

let shared_aig_db = lazy (Exact.Database.create Exact.Synth.aig_config)
let shared_xag_db = lazy (Exact.Database.create Exact.Synth.xag_config)
let shared_mig_db = lazy (Exact.Database.create Exact.Synth.mig_config)

let preservation_test (type t) ~name
    (module N : Intf.NETWORK with type t = t) ~(pass : t -> unit) ~seeds () =
  let module R = Gen.Make (N) in
  let module C = Algo.Cec.Make (N) (N) in
  let module Cl = Convert.Cleanup (N) in
  List.iter
    (fun seed ->
      let t =
        R.generate ~use_maj:(N.max_fanin >= 3) ~seed ~num_pis:5 ~num_gates:50
          ~num_pos:4 ()
      in
      let t_ref = Cl.cleanup t in
      pass t;
      (match N.check_integrity t with
      | [] -> ()
      | errs ->
        Alcotest.failf "%s: seed %d integrity: %s" name seed
          (String.concat "; " errs));
      match C.check t_ref t with
      | Algo.Cec.Equivalent -> ()
      | Algo.Cec.Counterexample _ ->
        Alcotest.failf "%s: seed %d produced a counterexample" name seed
      | Algo.Cec.Unknown -> Alcotest.failf "%s: seed %d cec unknown" name seed)
    seeds

let seeds = Seed.list [ 1; 2; 3; 4; 5 ]

let test_preserve_rewrite_aig () =
  let module Rw = Algo.Rewrite.Make (Aig) in
  preservation_test ~name:"rewrite/aig" (module Aig)
    ~pass:(fun t -> ignore (Rw.run t ~db:(Lazy.force shared_aig_db) ()))
    ~seeds ()

let test_preserve_rewrite_xag () =
  let module Rw = Algo.Rewrite.Make (Xag) in
  preservation_test ~name:"rewrite/xag" (module Xag)
    ~pass:(fun t -> ignore (Rw.run t ~db:(Lazy.force shared_xag_db) ()))
    ~seeds ()

let test_preserve_rewrite_mig () =
  let module Rw = Algo.Rewrite.Make (Mig) in
  preservation_test ~name:"rewrite/mig" (module Mig)
    ~pass:(fun t -> ignore (Rw.run t ~db:(Lazy.force shared_mig_db) ()))
    ~seeds:(Seed.list [ 1; 2; 3 ]) ()

let test_preserve_resub () =
  let module Rs_a = Algo.Resub.Make (Aig) in
  let module Rs_x = Algo.Resub.Make (Xag) in
  let module Rs_m = Algo.Resub.Make (Mig) in
  preservation_test ~name:"resub/aig" (module Aig)
    ~pass:(fun t -> ignore (Rs_a.run t ~kernel:Algo.Resub.And_or ~max_inserted:2 ()))
    ~seeds ();
  preservation_test ~name:"resub/xag" (module Xag)
    ~pass:(fun t -> ignore (Rs_x.run t ~kernel:Algo.Resub.And_or_xor ~max_inserted:2 ()))
    ~seeds ();
  preservation_test ~name:"resub/mig" (module Mig)
    ~pass:(fun t -> ignore (Rs_m.run t ~kernel:Algo.Resub.Maj3 ()))
    ~seeds ()

let test_preserve_refactor () =
  let module Rf_a = Algo.Refactor.Make (Aig) in
  let module Rf_x = Algo.Refactor.Make (Xag) in
  let module Rf_m = Algo.Refactor.Make (Mig) in
  preservation_test ~name:"refactor/aig" (module Aig)
    ~pass:(fun t -> ignore (Rf_a.run t ())) ~seeds ();
  preservation_test ~name:"refactor/xag" (module Xag)
    ~pass:(fun t -> ignore (Rf_x.run t ())) ~seeds ();
  preservation_test ~name:"refactor/mig" (module Mig)
    ~pass:(fun t -> ignore (Rf_m.run t ())) ~seeds ()

let test_preserve_balance () =
  let module B_a = Algo.Balance.Make (Aig) in
  let module B_x = Algo.Balance.Make (Xag) in
  let module B_m = Algo.Balance.Make (Mig) in
  preservation_test ~name:"balance/aig" (module Aig)
    ~pass:(fun t -> ignore (B_a.run t)) ~seeds ();
  preservation_test ~name:"balance/xag" (module Xag)
    ~pass:(fun t -> ignore (B_x.run t)) ~seeds ();
  preservation_test ~name:"balance/mig" (module Mig)
    ~pass:(fun t -> ignore (B_m.run t)) ~seeds ()

let suite =
  [
    Alcotest.test_case "depth" `Quick test_depth;
    Alcotest.test_case "simulate" `Quick test_simulate;
    Alcotest.test_case "cuts: functions correct" `Quick test_cuts;
    Alcotest.test_case "cuts: limit respected" `Quick test_cut_count_limit;
    Alcotest.test_case "mffc" `Quick test_mffc;
    Alcotest.test_case "reconvergence-driven cut" `Quick test_reconv;
    Alcotest.test_case "cec basic + counterexample" `Quick test_cec_basic;
    Alcotest.test_case "cec across representations" `Quick test_cec_cross_representation;
    Alcotest.test_case "balance reduces depth" `Quick test_balance_reduces_depth;
    Alcotest.test_case "balance mig or-chain" `Quick test_balance_mig;
    Alcotest.test_case "rewrite reduces" `Quick test_rewrite_reduces;
    Alcotest.test_case "resub shares divisor" `Quick test_resub_shares;
    Alcotest.test_case "refactor reduces" `Quick test_refactor_reduces;
    Alcotest.test_case "lut mapping" `Quick test_lutmap;
    Alcotest.test_case "preservation: rewrite aig" `Slow test_preserve_rewrite_aig;
    Alcotest.test_case "preservation: rewrite xag" `Slow test_preserve_rewrite_xag;
    Alcotest.test_case "preservation: rewrite mig" `Slow test_preserve_rewrite_mig;
    Alcotest.test_case "preservation: resub" `Slow test_preserve_resub;
    Alcotest.test_case "preservation: refactor" `Slow test_preserve_refactor;
    Alcotest.test_case "preservation: balance" `Slow test_preserve_balance;
  ]

(* -- additional coverage -- *)

let test_cuts_k6 () =
  let module R = Gen.Make (Aig) in
  let t = R.generate ~seed:(Seed.get 9) ~num_pis:8 ~num_gates:60 ~num_pos:4 () in
  let r = Cuts_aig.enumerate t ~k:6 ~cut_limit:8 () in
  let values = Sim_aig.simulate_exhaustive t in
  Aig.foreach_gate t (fun n ->
      List.iter
        (fun cut ->
          Alcotest.(check bool) "leaf bound" true
            (Array.length cut.Cuts_aig.leaves <= 6);
          let args = Array.map (fun l -> values.(l)) cut.Cuts_aig.leaves in
          let recomposed = Tt.apply cut.Cuts_aig.tt args in
          if not (Tt.equal recomposed values.(n)) then
            Alcotest.failf "k=6 cut function wrong at node %d" n)
        (Cuts_aig.cuts_of r n))

let test_cuts_mig () =
  (* cut functions across a representation with constant fanins *)
  let module R = Gen.Make (Mig) in
  let module Cm = Algo.Cuts.Make (Mig) in
  let module Sm = Algo.Simulate.Make (Mig) in
  let t =
    R.generate ~use_maj:true ~seed:(Seed.get 4) ~num_pis:5 ~num_gates:40
      ~num_pos:3 ()
  in
  let r = Cm.enumerate t ~k:4 ~cut_limit:6 () in
  let values = Sm.simulate_exhaustive t in
  Mig.foreach_gate t (fun n ->
      List.iter
        (fun cut ->
          let args = Array.map (fun l -> values.(l)) cut.Cm.leaves in
          let recomposed = Tt.apply cut.Cm.tt args in
          if not (Tt.equal recomposed values.(n)) then
            Alcotest.failf "mig cut function wrong at node %d" n)
        (Cm.cuts_of r n))

let test_window_divisors () =
  (* side divisors must not be in the root's TFO and must be simulatable *)
  let module R = Gen.Make (Aig) in
  let module W = Algo.Window.Make (Aig) in
  let t = R.generate ~seed:(Seed.get 15) ~num_pis:6 ~num_gates:80 ~num_pos:4 () in
  Aig.foreach_gate t (fun n ->
      if Aig.ref_count t n > 0 then begin
        let leaves = Reconv_aig.compute t ~max_leaves:8 n in
        if leaves <> [||] then begin
          let w = W.of_cut t n leaves in
          let divisors =
            W.divisors t w ~mffc:(Mffc_aig.collect t n) ~max:20
          in
          Alcotest.(check bool) "root not a divisor" true
            (not (Array.mem n divisors));
          let values = W.simulate t w in
          W.simulate_divisors t values divisors;
          Array.iter
            (fun d ->
              Alcotest.(check bool) "divisor simulated" true
                (match W.find t values d with
                | _ -> true
                | exception Not_found -> false))
            divisors
        end
      end)

let test_lutmap_k4 () =
  let module R = Gen.Make (Aig) in
  let module L = Algo.Lutmap.Make (Aig) in
  let module Cx = Algo.Cec.Make (Aig) (Klut) in
  let t = R.generate ~seed:(Seed.get 19) ~num_pis:6 ~num_gates:100 ~num_pos:4 () in
  let m = L.map t ~k:4 () in
  Klut.foreach_gate m.L.klut (fun n ->
      Alcotest.(check bool) "lut arity <= 4" true (Klut.fanin_size m.L.klut n <= 4));
  match Cx.check t m.L.klut with
  | Algo.Cec.Equivalent -> ()
  | Algo.Cec.Counterexample _ | Algo.Cec.Unknown ->
    Alcotest.fail "k=4 mapping not equivalent"

let test_lutmap_of_mig () =
  (* LUT mapping is generic: map a MIG *)
  let module R = Gen.Make (Mig) in
  let module L = Algo.Lutmap.Make (Mig) in
  let module Cx = Algo.Cec.Make (Mig) (Klut) in
  let t =
    R.generate ~use_maj:true ~seed:(Seed.get 28) ~num_pis:6 ~num_gates:60
      ~num_pos:3 ()
  in
  let m = L.map t ~k:6 () in
  Alcotest.(check bool) "nonempty" true (m.L.lut_count > 0);
  match Cx.check t m.L.klut with
  | Algo.Cec.Equivalent -> ()
  | Algo.Cec.Counterexample _ | Algo.Cec.Unknown ->
    Alcotest.fail "mig mapping not equivalent"

let test_depth_klut () =
  let module R = Gen.Make (Aig) in
  let module L = Algo.Lutmap.Make (Aig) in
  let t = R.generate ~seed:(Seed.get 3) ~num_pis:6 ~num_gates:80 ~num_pos:4 () in
  let m = L.map t ~k:6 () in
  let module Dk = Algo.Depth.Make (Klut) in
  Alcotest.(check int) "depth consistent" m.L.depth (Dk.depth m.L.klut);
  Alcotest.(check bool) "depth below aig depth" true
    (m.L.depth <= Depth_aig.depth t)

let test_cec_budget_unknown () =
  (* a large inequivalent pair with a 1-conflict budget must not claim
     equivalence *)
  let module R = Gen.Make (Aig) in
  (* two *distinct* seeds even under GENLOG_TEST_SEED: the test needs
     inequivalent networks *)
  let s = Seed.get 51 in
  let t1 = R.generate ~seed:s ~num_pis:8 ~num_gates:150 ~num_pos:2 () in
  let t2 = R.generate ~seed:(s + 1) ~num_pis:8 ~num_gates:150 ~num_pos:2 () in
  match Cec_aig.check ~ladder:[ 1 ] t1 t2 with
  | Algo.Cec.Equivalent -> Alcotest.fail "different seeds equivalent?"
  | Algo.Cec.Counterexample _ | Algo.Cec.Unknown -> ()

let test_fraig_then_rewrite_chain () =
  (* passes compose: fraig + rewrite + resub + balance in sequence *)
  let module R = Gen.Make (Aig) in
  let module Fr = Algo.Fraig.Make (Aig) in
  let module Rw = Algo.Rewrite.Make (Aig) in
  let module Rs = Algo.Resub.Make (Aig) in
  let module B = Algo.Balance.Make (Aig) in
  let module Cl = Convert.Cleanup (Aig) in
  let t = R.generate ~seed:(Seed.get 61) ~num_pis:6 ~num_gates:120 ~num_pos:5 () in
  let reference = Cl.cleanup t in
  ignore (Fr.run t ());
  ignore (Rw.run t ~db:(Lazy.force shared_aig_db) ());
  ignore (Rs.run t ~kernel:Algo.Resub.And_or ~max_inserted:2 ());
  ignore (B.run t);
  (match Aig.check_integrity t with
  | [] -> ()
  | errs -> Alcotest.failf "integrity: %s" (String.concat "; " errs));
  cec_equal "composed passes" reference t

let test_preserve_xmg_passes () =
  (* the fourth representation (extension) through the same algorithms *)
  let module Rw = Algo.Rewrite.Make (Xmg) in
  let module Rs = Algo.Resub.Make (Xmg) in
  let module B = Algo.Balance.Make (Xmg) in
  let db = Exact.Database.create Exact.Synth.xmg_config in
  preservation_test ~name:"rewrite/xmg" (module Xmg)
    ~pass:(fun t -> ignore (Rw.run t ~db ()))
    ~seeds:(Seed.list [ 1; 2 ]) ();
  preservation_test ~name:"resub/xmg" (module Xmg)
    ~pass:(fun t -> ignore (Rs.run t ~kernel:Algo.Resub.Maj3 ()))
    ~seeds:(Seed.list [ 1; 2 ]) ();
  preservation_test ~name:"balance/xmg" (module Xmg)
    ~pass:(fun t -> ignore (B.run t))
    ~seeds:(Seed.list [ 1; 2 ]) ()

let test_mffc_respects_po_refs () =
  (* a node driving a PO directly is referenced and not inside any MFFC *)
  let t = Aig.create () in
  let a = Aig.create_pi t and b = Aig.create_pi t and c = Aig.create_pi t in
  let ab = Aig.create_and t a b in
  let f = Aig.create_and t ab c in
  Aig.create_po t f;
  Aig.create_po t ab;
  Alcotest.(check int) "mffc of f excludes ab" 1 (Mffc_aig.size t (Aig.node_of_signal f))

(* -- cuts on k-LUT networks (node-function cache regression) -- *)

let test_cuts_klut_distinct_luts () =
  (* Two LUT nodes with the same arity but different functions: a node-
     function cache keyed by (kind, fanin arity) alone would conflate
     them, so [Cuts] must read the table off the node for LUT kinds. *)
  let module Cuts_k = Algo.Cuts.Make (Klut) in
  let module Sim_k = Algo.Simulate.Make (Klut) in
  let t = Klut.create () in
  let a = Klut.create_pi t and b = Klut.create_pi t and c = Klut.create_pi t in
  let xor3 = Klut.create_lut t [| a; b; c |] (Tt.of_hex 3 "96") in
  let maj3 = Klut.create_lut t [| a; b; c |] (Tt.of_hex 3 "e8") in
  Klut.create_po t xor3;
  Klut.create_po t maj3;
  let r = Cuts_k.enumerate t ~k:4 ~cut_limit:8 () in
  let values = Sim_k.simulate_exhaustive t in
  let check_node s =
    let n = Klut.node_of_signal s in
    let cuts = Cuts_k.cuts_of r n in
    Alcotest.(check bool) "has cuts" true (cuts <> []);
    List.iter
      (fun cut ->
        let args = Array.map (fun l -> values.(l)) cut.Cuts_k.leaves in
        Alcotest.(check tt_testable) "klut cut function" values.(n)
          (Tt.apply cut.Cuts_k.tt args))
      cuts
  in
  check_node xor3;
  check_node maj3;
  (* the two full {a,b,c} cuts must carry *different* functions *)
  let full s =
    List.find
      (fun cut -> Array.length cut.Cuts_k.leaves = 3)
      (Cuts_k.cuts_of r (Klut.node_of_signal s))
  in
  Alcotest.(check bool) "distinct same-arity LUT functions" false
    (Tt.equal (full xor3).Cuts_k.tt (full maj3).Cuts_k.tt)

(* -- property: cut sets on random Lsgen networks -- *)

(* sorted-leaf subset test, mirroring the dominance definition *)
let leaves_subset a b =
  let la = Array.length a and lb = Array.length b in
  la <= lb
  &&
  let i = ref 0 and j = ref 0 in
  while !i < la && !j < lb do
    if a.(!i) = b.(!j) then begin
      incr i;
      incr j
    end
    else if a.(!i) > b.(!j) then incr j
    else j := lb (* a.(i) missing from b *)
  done;
  !i = la

let prop_cuts_random =
  QCheck.Test.make
    ~name:"cuts: functions match bit-parallel simulation, no dominated cut"
    ~count:15
    QCheck.(int_bound 9999)
    (fun seed ->
      let t = Aig.create () in
      let module C = Lsgen.Control.Make (Aig) in
      C.random_logic t ~seed ~num_pis:8 ~num_pos:4 ~num_gates:80;
      let r = Cuts_aig.enumerate t ~k:6 ~cut_limit:8 () in
      let values =
        Sim_aig.simulate t (Sim_aig.random_values ~num_vars:6 ~seed:(seed + 1) t)
      in
      let ok = ref true in
      Aig.foreach_gate t (fun n ->
          let cuts = Cuts_aig.cuts_array r n in
          Array.iter
            (fun cut ->
              let args =
                Array.map (fun l -> values.(l)) cut.Cuts_aig.leaves
              in
              if not (Tt.equal values.(n) (Tt.apply cut.Cuts_aig.tt args)) then
                ok := false)
            cuts;
          let m = Array.length cuts in
          for i = 0 to m - 1 do
            for j = 0 to m - 1 do
              if
                i <> j
                && leaves_subset cuts.(i).Cuts_aig.leaves
                     cuts.(j).Cuts_aig.leaves
              then ok := false
            done
          done);
      !ok)

(* The shared walks agree with independent ones: the MFFC fold counts
   what [collect] lists and leaves every reference count as it was; the
   level overlay prices nodes built after it was taken, over gates the
   outputs reach, as a fresh cone walk ([Cost.level]) does. *)
let prop_shared_walks =
  QCheck.Test.make
    ~name:"mffc size = |collect| with counts kept; level overlay = Cost.level"
    ~count:30 (Gen.arb_params ())
    (fun (seed, num_gates) ->
      let module R = Gen.Make (Aig) in
      let module Co = Algo.Cost.Make (Aig) in
      let t = R.generate ~seed ~num_pis:6 ~num_gates ~num_pos:4 () in
      let refs () = Array.init (Aig.size t) (Aig.ref_count t) in
      let before = refs () in
      let sizes_ok = ref true in
      Aig.foreach_node t (fun n ->
          if Mffc_aig.size t n <> List.length (Mffc_aig.collect t n) then
            sizes_ok := false);
      let counts_ok = refs () = before in
      let level_of = Depth_aig.overlay t in
      let mark = Aig.size t in
      let rng = Random.State.make [| seed |] in
      let pool = ref (Array.to_list (Array.map Aig.signal_of_node (Aig.pis t))) in
      let module T = Network.Topo.Make (Aig) in
      List.iter (fun n -> pool := Aig.signal_of_node n :: !pool) (T.order t);
      let pick () =
        let l = !pool in
        Aig.complement_if (Random.State.bool rng)
          (List.nth l (Random.State.int rng (List.length l)))
      in
      for _ = 1 to 10 do
        pool := Aig.create_and t (pick ()) (pick ()) :: !pool
      done;
      let levels_ok = ref true in
      for n = mark to Aig.size t - 1 do
        if level_of n <> Co.level t n then levels_ok := false
      done;
      !sizes_ok && counts_ok && !levels_ok)

(* Divisor collection stops at its cap without changing what it keeps:
   the capped list is the prefix of the uncapped one, for every cap. *)
let prop_divisor_cap =
  QCheck.Test.make ~name:"window divisors ~max:k = prefix of uncapped"
    ~count:30 (Gen.arb_params ())
    (fun (seed, num_gates) ->
      let module R = Gen.Make (Aig) in
      let module W = Algo.Window.Make (Aig) in
      let t = R.generate ~seed ~num_pis:6 ~num_gates ~num_pos:4 () in
      let ok = ref true in
      Aig.foreach_gate t (fun n ->
          let leaves = Reconv_aig.compute t ~max_leaves:6 n in
          if leaves <> [||] then begin
            let w = W.of_cut t n leaves in
            let mffc = Mffc_aig.collect t n in
            let all = W.divisors t w ~mffc ~max:max_int in
            for k = 0 to Array.length all + 1 do
              if
                W.divisors t w ~mffc ~max:k
                <> Array.sub all 0 (min k (Array.length all))
              then ok := false
            done
          end);
      !ok)

(* -- resubstitution kernels on polarity literals against the kernels
   over complemented copies they replaced -- *)

(* The kernels as they were: a literal is a signal and its own table, the
   complemented literal a complemented copy of the divisor's table. *)
module Resub_reference (N : Intf.NETWORK) = struct
  type literal = N.signal * Tt.t

  let resub0 (lits : literal array) target =
    if Tt.is_const0 target then Some (N.constant false)
    else if Tt.is_const1 target then Some (N.constant true)
    else
      Array.find_map (fun (s, tt) -> if Tt.equal tt target then Some s else None) lits

  let pairs_of pool hit build =
    let rec pairs = function
      | [] -> None
      | (s1, t1) :: rest -> (
        match List.find_opt (fun (_, t2) -> hit t1 t2) rest with
        | Some (s2, _) -> Some (build s1 s2)
        | None -> pairs rest)
    in
    pairs pool

  let resub_or net (lits : literal array) target =
    pairs_of
      (List.filter (fun (_, tt) -> Tt.implies tt target) (Array.to_list lits))
      (fun t1 t2 -> Tt.equal Tt.(t1 |: t2) target)
      (N.create_or net)

  let resub_and net (lits : literal array) target =
    pairs_of
      (List.filter (fun (_, tt) -> Tt.implies target tt) (Array.to_list lits))
      (fun t1 t2 -> Tt.equal Tt.(t1 &: t2) target)
      (N.create_and net)

  let table_of (lits : literal array) =
    let table = Tt.Tbl.create (Array.length lits) in
    Array.iter (fun (s, tt) -> Tt.Tbl.replace table tt s) lits;
    table

  let resub_xor net (lits : literal array) target =
    let table = table_of lits in
    Array.find_map
      (fun (s1, t1) ->
        match Tt.Tbl.find_opt table (Tt.( ^: ) target t1) with
        | Some s2 when s2 <> s1 -> Some (N.create_xor net s1 s2)
        | Some _ | None -> None)
      lits

  let resub_or_and net (lits : literal array) target =
    let all = Array.to_list lits in
    List.find_map
      (fun (s1, t1) ->
        let rem = Tt.and_c false target true t1 in
        if Tt.is_const0 rem then None
        else
          pairs_of
            (List.filter (fun (_, tt) -> Tt.implies rem tt) all)
            (fun t2 t3 -> Tt.equal Tt.(t1 |: (t2 &: t3)) target)
            (fun s2 s3 -> N.create_or net s1 (N.create_and net s2 s3)))
      (List.filter (fun (_, tt) -> Tt.implies tt target) all)

  let resub_and_or net (lits : literal array) target =
    let neg = Array.map (fun (s, tt) -> (N.complement s, Tt.( ~: ) tt)) lits in
    Option.map N.complement (resub_or_and net neg (Tt.( ~: ) target))

  let resub_xor_and net (lits : literal array) target =
    let table = table_of lits in
    let n = Array.length lits and result = ref None in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let s2, t2 = lits.(i) and s3, t3 = lits.(j) in
        if !result = None && N.node_of_signal s2 <> N.node_of_signal s3 then
          match Tt.Tbl.find_opt table Tt.(target ^: (t2 &: t3)) with
          | Some s1 -> result := Some (N.create_xor net s1 (N.create_and net s2 s3))
          | None -> ()
      done
    done;
    !result

  let resub_maj net (lits : literal array) target =
    let n = Array.length lits and result = ref None in
    let node i = N.node_of_signal (fst lits.(i)) in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let s1, t1 = lits.(i) and s2, t2 = lits.(j) in
        if
          !result = None && node i <> node j
          && Tt.implies Tt.(t1 &: t2) target
          && Tt.implies target Tt.(t1 |: t2)
        then
          for k = 0 to n - 1 do
            let s3, t3 = lits.(k) in
            if
              !result = None && node k <> node i && node k <> node j
              && Tt.is_const0 Tt.((t3 ^: target) &: (t1 ^: t2))
            then result := Some (N.create_maj net s1 s2 s3)
          done
      done
    done;
    !result
end

module Resub_kernels (N : Intf.NETWORK) = struct
  module G = Gen.Make (N)
  module Rs = Algo.Resub.Make (N)
  module Ref = Resub_reference (N)
  module Rc = Algo.Reconv.Make (N)
  module W = Algo.Window.Make (N)
  module M = Algo.Mffc.Make (N)
  module T = Topo.Make (N)

  (* Every kernel of [kinds] answers what its reference answers, on the
     window of every gate of a random network, for the root's own table
     and for targets composed from random literals (so that the kernels
     also find their structures). *)
  let agree ?use_maj ~kinds seed =
    let rng = Random.State.make [| seed |] in
    let net =
      G.generate ?use_maj ~seed ~num_pis:6 ~num_gates:50 ~num_pos:4 ()
    in
    let ok = ref true in
    List.iter
      (fun n ->
        if N.is_gate net n && not (N.is_dead net n) then begin
          let leaves = Rc.compute net ~max_leaves:8 n in
          let mffc = M.collect net n in
          if Array.length leaves > 0 && mffc <> [] then begin
            let w = W.of_cut net n leaves in
            let divisors = W.divisors net w ~mffc ~max:24 in
            let tb = W.simulate net w in
            W.simulate_divisors net tb divisors;
            let lits = Rs.literals net tb divisors in
            let ref_lits =
              Array.map
                (fun (l : Rs.literal) ->
                  (l.s, if l.neg then Tt.( ~: ) l.tt else l.tt))
                lits
            in
            let nl = Array.length lits in
            let f i = snd ref_lits.(i) in
            let composed () =
              let a = f (Random.State.int rng nl)
              and b = f (Random.State.int rng nl)
              and c = f (Random.State.int rng nl) in
              Tt.(
                match Random.State.int rng 7 with
                | 0 -> a |: b
                | 1 -> a &: b
                | 2 -> a ^: b
                | 3 -> a |: (b &: c)
                | 4 -> a &: (b |: c)
                | 5 -> a ^: (b &: c)
                | _ -> maj a b c)
            in
            let targets =
              W.find net tb n
              :: (if nl = 0 then [] else List.init 6 (fun _ -> composed ()))
            in
            List.iter
              (fun target ->
                List.iter
                  (fun kind ->
                    let expect, got =
                      match kind with
                      | `Zero -> (Ref.resub0 ref_lits target, Rs.resub0 lits target)
                      | `Or ->
                        (Ref.resub_or net ref_lits target, Rs.resub_or net lits target)
                      | `And ->
                        (Ref.resub_and net ref_lits target, Rs.resub_and net lits target)
                      | `Xor ->
                        (Ref.resub_xor net ref_lits target, Rs.resub_xor net lits target)
                      | `Or_and ->
                        ( Ref.resub_or_and net ref_lits target,
                          Rs.resub_or_and net lits target )
                      | `And_or ->
                        ( Ref.resub_and_or net ref_lits target,
                          Rs.resub_and_or net lits target )
                      | `Xor_and ->
                        ( Ref.resub_xor_and net ref_lits target,
                          Rs.resub_xor_and net lits target )
                      | `Maj ->
                        (Ref.resub_maj net ref_lits target, Rs.resub_maj net lits target)
                    in
                    if expect <> got then ok := false)
                  kinds)
              targets
          end
        end)
      (T.order net);
    !ok
end

module Resub_kernels_aig = Resub_kernels (Aig)
module Resub_kernels_xag = Resub_kernels (Xag)
module Resub_kernels_mig = Resub_kernels (Mig)

(* Reference for [Balance.rebuild]: a sorted operand list that each
   combined operand is merged into, quadratic in the group size. *)
let rebuild_by_merge net ~level_of combine leaves =
  let insert l x lst =
    List.merge (fun (a, _) (b, _) -> compare a b) [ (l, x) ] lst
  in
  let rec go = function
    | [] -> invalid_arg "rebuild_by_merge: empty group"
    | [ (_, s) ] -> s
    | (l1, s1) :: (l2, s2) :: rest ->
      go (insert (max l1 l2 + 1) (combine net s1 s2) rest)
  in
  go
    (List.sort
       (fun (a, _) (b, _) -> compare a b)
       (List.map (fun s -> (level_of (Aig.node_of_signal s), s)) leaves))

(* The heap pops operands in the merge's order: the same combine calls
   in the same order, on groups whose leaf levels tie often. *)
let prop_balance_rebuild_order =
  QCheck.Test.make ~name:"balance rebuild = List.merge reference" ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let module B = Algo.Balance.Make (Aig) in
      let rng = Random.State.make [| seed |] in
      let t = Aig.create () in
      let pis = Array.init 12 (fun _ -> Aig.create_pi t) in
      let levels = Array.init (Aig.size t) (fun _ -> Random.State.int rng 4) in
      let leaves =
        List.init
          (1 + Random.State.int rng 40)
          (fun _ ->
            Aig.complement_if (Random.State.bool rng)
              pis.(Random.State.int rng (Array.length pis)))
      in
      let run rebuild =
        let calls = ref [] in
        let combine net a b =
          calls := (a, b) :: !calls;
          Aig.create_and net a b
        in
        let root = rebuild t ~level_of:(fun n -> levels.(n)) combine leaves in
        (root, List.rev !calls)
      in
      run B.rebuild = run rebuild_by_merge)

let and_or_kinds = [ `Zero; `Or; `And; `Or_and; `And_or ]

let prop_resub_kernels =
  QCheck.Test.make ~name:"resub kernels on polarity literals = reference"
    ~count:10 (QCheck.int_bound 1_000_000)
    (fun seed ->
      Resub_kernels_aig.agree ~kinds:and_or_kinds seed
      && Resub_kernels_xag.agree ~kinds:(and_or_kinds @ [ `Xor; `Xor_and ]) seed
      && Resub_kernels_mig.agree ~use_maj:true ~kinds:[ `Zero; `Maj ] seed)

let extra_suite =
  [
    Alcotest.test_case "cuts k=6 functions" `Quick test_cuts_k6;
    Alcotest.test_case "cuts on klut with distinct luts" `Quick
      test_cuts_klut_distinct_luts;
    Seed.to_alcotest prop_cuts_random;
    Alcotest.test_case "cuts on mig" `Quick test_cuts_mig;
    Alcotest.test_case "window divisors" `Quick test_window_divisors;
    Alcotest.test_case "lutmap k=4" `Quick test_lutmap_k4;
    Alcotest.test_case "lutmap of mig" `Quick test_lutmap_of_mig;
    Alcotest.test_case "depth of klut mapping" `Quick test_depth_klut;
    Alcotest.test_case "cec budget" `Quick test_cec_budget_unknown;
    Alcotest.test_case "composed passes" `Quick test_fraig_then_rewrite_chain;
    Alcotest.test_case "preservation: xmg passes" `Slow test_preserve_xmg_passes;
    Alcotest.test_case "mffc respects po refs" `Quick test_mffc_respects_po_refs;
    Seed.to_alcotest prop_shared_walks;
    Seed.to_alcotest prop_divisor_cap;
    Seed.to_alcotest prop_resub_kernels;
    Seed.to_alcotest prop_balance_rebuild_order;
  ]

let suite = suite @ extra_suite
