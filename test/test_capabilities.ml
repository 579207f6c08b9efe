(* Compile-time checks for the capability-signature lattice: every functor
   in the codebase is instantiated with a module coerced down to *exactly*
   its declared minimal sub-signature.  If an algorithm starts using a
   capability outside its slice, or an implementation stops providing one,
   this file fails to compile.  A small runtime check confirms the coerced
   instantiations agree with the full-signature ones. *)

open Network

(* Aig coerced to each lattice point: the coercions themselves prove that
   every implementation satisfies every slice. *)
module Structure : Intf.STRUCTURE with type t = Aig.t = Aig
module Builder : Intf.BUILDER with type t = Aig.t = Aig
module Traversable : Intf.TRAVERSABLE with type t = Aig.t = Aig
module Counted : Intf.COUNTED with type t = Aig.t = Aig
module Sweepable : Intf.SWEEPABLE with type t = Aig.t = Aig
module Full : Intf.NETWORK with type t = Aig.t = Aig

(* Every other representation satisfies the full union (and therefore each
   slice). *)
module _ : Intf.NETWORK = Mig
module _ : Intf.NETWORK = Xag
module _ : Intf.NETWORK = Xmg
module _ : Intf.NETWORK = Klut

(* Each functor at its minimal slice.  TRAVERSABLE: pure traversals. *)
module Topo_min = Topo.Make (Traversable)
module Depth_min = Algo.Depth.Make (Traversable)
module _ = Algo.Simulate.Make (Traversable)
module _ = Algo.Cuts.Make (Traversable)
module _ = Algo.Reconv.Make (Traversable)
module _ = Algo.Sweep.Make (Traversable)
module _ = Algo.Cec.Make (Traversable) (Traversable)

(* COUNTED: traversal + reference counts. *)
module _ = Algo.Mffc.Make (Counted)
module _ = Algo.Window.Make (Counted)
module Lutmap_min = Algo.Lutmap.Make (Counted)

(* SWEEPABLE: traversal + substitution, no construction. *)
module _ = Algo.Fraig.Make (Sweepable)

(* BUILDER: constructors only. *)
module _ = Network.Build.Make (Builder)
module _ = Exact.Decode.Make (Builder)
module _ = Lsgen.Blocks.Make (Builder)

(* Conversion: read-only source, construct-only destination. *)
module _ = Convert.Make (Traversable) (Builder)

(* The restructuring passes use every capability. *)
module _ = Algo.Balance.Make (Full)
module _ = Algo.Rewrite.Make (Full)
module _ = Algo.Refactor.Make (Full)
module _ = Algo.Resub.Make (Full)

module S = Lsgen.Suite.Make (Aig)
module Depth_full = Algo.Depth.Make (Aig)
module Topo_full = Topo.Make (Aig)

(* The coerced functor instance operates on the same values and computes
   the same results as the full-signature instance. *)
let test_sliced_equals_full () =
  let t = S.build "ctrl" in
  Alcotest.(check int) "depth agrees" (Depth_full.depth t) (Depth_min.depth t);
  Alcotest.(check int)
    "topo order length agrees"
    (List.length (Topo_full.order t))
    (List.length (Topo_min.order t))

let test_lutmap_on_slice () =
  let t = S.build "int2float" in
  let m = Lutmap_min.map t ~k:6 () in
  Alcotest.(check bool) "mapped" true (m.Lutmap_min.lut_count > 0)

let suite =
  [
    Alcotest.test_case "sliced functors = full functors" `Quick
      test_sliced_equals_full;
    Alcotest.test_case "lutmap over COUNTED slice" `Quick test_lutmap_on_slice;
  ]
