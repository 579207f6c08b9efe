(* Verification-centric workflow: SAT sweeping, resubstitution and
   equivalence checking on one design.

   Logic synthesis and formal verification share their engines (the paper's
   §2.2 "Boolean reasoning"): this example uses the same CDCL solver for
   three different jobs —

   1. FRAIG-style SAT sweeping merges functionally equivalent nodes that
      structural hashing cannot see;
   2. simulation-guided resubstitution re-expresses the remaining nodes
      with divisors that already exist in the network;
   3. a final SAT CEC proves the whole pipeline preserved every output.

   Run with:  dune exec examples/verification_flow.exe *)

open Genlog

module Fr = Fraig.Make (Aig)
module Rs = Resub.Make (Aig)
module C = Cec.Make (Aig) (Aig)
module Cl = Convert.Cleanup (Aig)
module D = Depth.Make (Aig)

let report label t =
  Printf.printf "%-28s %5d AND gates, depth %3d\n" label (Aig.num_gates t)
    (D.depth t)

let () =
  (* a design with hidden redundancy: two differently-structured copies of
     an ALU slice, compared against each other *)
  let module B = Blocks.Make (Aig) in
  let t = Aig.create () in
  let a = B.input_word t ~width:8 in
  let b = B.input_word t ~width:8 in
  (* datapath 1: add then subtract the same operand *)
  let sum, _ = B.add t a b in
  let diff, _ = B.subtract t sum b in
  (* datapath 2: the identity, built directly *)
  let equal_bits =
    List.init 8 (fun i -> Aig.complement (Aig.create_xor t diff.(i) a.(i)))
  in
  Aig.create_po t (Aig.create_nary_and t equal_bits);
  B.output_word t sum;
  report "built (a+b, (a+b)-b == a):" t;

  let reference = Cl.cleanup t in

  (* 1. SAT sweeping: (a+b)-b collapses onto a, making the comparator
     constant true *)
  let stats = Fr.run t () in
  let t = Cl.cleanup t in
  Printf.printf "fraig: %d candidate classes, %d proved, %d refuted\n"
    stats.Fr.classes stats.Fr.proved stats.Fr.refuted;
  report "after SAT sweeping:" t;

  (* 2. resubstitution cleans up what is left *)
  let gain = Rs.run t ~kernel:Resub.And_or ~max_inserted:2 () in
  let t = Cl.cleanup t in
  Printf.printf "resub: %d gates saved\n" gain;
  report "after resubstitution:" t;

  (* 3. prove the pipeline *)
  (match C.check reference t with
  | Cec.Equivalent -> print_endline "SAT CEC: all outputs equivalent"
  | Cec.Counterexample _ -> print_endline "SAT CEC: NOT equivalent (bug!)"
  | Cec.Unknown -> print_endline "SAT CEC: unknown");

  (* the comparator output must now be the constant true *)
  let po0 = Aig.po_at t 0 in
  if po0 = Aig.constant true then
    print_endline "comparator output proved constant true"
  else
    Printf.printf "comparator output not yet constant (node %d)\n"
      (Aig.node_of_signal po0)
