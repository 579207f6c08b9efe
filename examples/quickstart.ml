(* Quickstart: walk the paper's four layers on a small circuit.

   Run with:  dune exec examples/quickstart.exe *)

open Genlog

(* Layer 2 algorithms are functors over the network interface API (layer
   1); instantiating them for AIGs picks the layer-3 implementation. *)
module D = Depth.Make (Aig)
module F = Flow.Make (Aig)
module L = Lutmap.Make (Aig)
module C = Cec.Make (Aig) (Aig)
module Cl = Convert.Cleanup (Aig)

let () =
  (* build a 16-bit adder followed by a comparator, using only the generic
     constructors of the network API *)
  let module B = Blocks.Make (Aig) in
  let t = Aig.create () in
  let a = B.input_word t ~width:16 in
  let b = B.input_word t ~width:16 in
  let sum, carry = B.add t a b in
  B.output_word t sum;
  Aig.create_po t carry;
  Printf.printf "built:      %d AND gates, depth %d\n" (Aig.num_gates t) (D.depth t);

  (* keep a reference copy to verify the optimization afterwards *)
  let reference = Cl.cleanup t in

  (* run the paper's generic compress2rs flow (§3.1) *)
  let env = Flow.make_env Run_config.Aig in
  let optimized = F.run_script env t Script.compress2rs in
  Printf.printf "compress2rs: %d AND gates, depth %d\n"
    (Aig.num_gates optimized) (D.depth optimized);

  (* prove the flow changed structure but not function *)
  (match C.check reference optimized with
  | Cec.Equivalent -> print_endline "CEC:        equivalent (SAT-proved)"
  | Cec.Counterexample _ -> print_endline "CEC:        NOT equivalent (bug!)"
  | Cec.Unknown -> print_endline "CEC:        unknown");

  (* map into 6-input LUTs, as in the paper's evaluation *)
  let m = L.map optimized ~k:6 () in
  Printf.printf "6-LUT map:  %d LUTs, depth %d\n" m.L.lut_count m.L.depth;

  (* export for other tools, into the temporary directory ($TMPDIR) *)
  let path name = Filename.concat (Filename.get_temp_dir_name ()) name in
  let aag = path "quickstart_opt.aag" and blif = path "quickstart_mapped.blif" in
  Aiger.write_file optimized aag;
  Blif.write_file m.L.klut blif;
  Printf.printf "wrote %s and %s\n" aag blif
