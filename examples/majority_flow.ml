(* Majority-logic design flow for nano-emerging technologies.

   The paper's conclusion names this as the canonical downstream use case:
   technologies such as quantum-dot cellular automata or spin-wave devices
   realize logic as majority voters, so synthesis should happen natively in
   majority-inverter graphs.  This example builds an arithmetic design,
   moves it into a MIG, optimizes with the generic flow (MIG exact
   synthesis, MAJ resubstitution, MAJ-tree balancing), and reports the
   majority-gate cost — plus a SAT proof that nothing changed
   functionally.

   Run with:  dune exec examples/majority_flow.exe *)

open Genlog

module Bm = Blocks.Make (Mig)
module Dm = Depth.Make (Mig)
module Fm = Flow.Make (Mig)
module Cl = Convert.Cleanup (Mig)
module Cec_m = Cec.Make (Mig) (Mig)

let count_pure_majority t =
  (* majority gates without constant fanins, vs AND/OR-style with one *)
  let pure = ref 0 and with_const = ref 0 in
  Mig.foreach_gate t (fun n ->
      let has_const =
        Array.exists (fun s -> Mig.node_of_signal s = 0) (Mig.fanin t n)
      in
      if has_const then incr with_const else incr pure);
  (!pure, !with_const)

let () =
  (* a multiply-accumulate slice: a*b + c, built natively in the MIG *)
  let t = Mig.create () in
  let a = Bm.input_word t ~width:6 in
  let b = Bm.input_word t ~width:6 in
  let c = Bm.input_word t ~width:12 in
  let prod = Bm.multiplier t a b in
  let sum, carry = Bm.add t prod c in
  Bm.output_word t sum;
  Mig.create_po t carry;
  let reference = Cl.cleanup t in
  let pure, with_const = count_pure_majority t in
  Printf.printf "MAC slice as MIG: %d majority gates (%d pure MAJ3, %d with a constant fanin)\n"
    (Mig.num_gates t) pure with_const;
  Printf.printf "depth: %d majority levels\n\n" (Dm.depth t);

  let env = Flow.make_env Run_config.Mig in
  let optimized = Fm.run_script env t Script.compress_lite in
  let pure, with_const = count_pure_majority optimized in
  Printf.printf "after the generic flow (MIG instantiation):\n";
  Printf.printf "  %d majority gates (%d pure MAJ3, %d with a constant fanin)\n"
    (Mig.num_gates optimized) pure with_const;
  Printf.printf "  depth: %d majority levels\n" (Dm.depth optimized);

  (match Cec_m.check reference optimized with
  | Cec.Equivalent -> print_endline "  SAT CEC: equivalent"
  | Cec.Counterexample _ -> print_endline "  SAT CEC: NOT equivalent (bug!)"
  | Cec.Unknown -> print_endline "  SAT CEC: unknown");

  (* a pure-majority cost model for QCA-like targets: every MAJ3 counts 1,
     inverters are free (complemented edges) *)
  Printf.printf "\nQCA-style cost (MAJ3 count, inverters free): %d\n"
    (Mig.num_gates optimized)
