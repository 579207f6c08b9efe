(* Conversion between network representations.

   Traverses the source network in topological order ([Topo.order]: a DFS
   from the outputs, since substitutions may have broken creation order)
   and rebuilds every gate in the destination with the destination's own
   constructors; structural hashing in the destination deduplicates on the
   fly.  [Cleanup] (same-type conversion) also sweeps dangling nodes and
   re-strashes. *)

(* The source is only traversed, the destination only built: conversion
   needs no refcounting or substitution on either side. *)
module Make (Src : Intf.TRAVERSABLE) (Dst : Intf.BUILDER) = struct
  module B = Build.Make (Dst)
  module T = Topo.Make (Src)

  let convert (src : Src.t) : Dst.t =
    let dst = Dst.create ~initial_capacity:(Src.size src) () in
    (* map source node -> destination signal *)
    let map = Array.make (Src.size src) (-1) in
    map.(0) <- Dst.constant false;
    Src.foreach_pi src (fun n -> map.(n) <- Dst.create_pi dst);
    List.iter
      (fun n ->
        let fanins =
          Array.map
            (fun s ->
              let m = map.(Src.node_of_signal s) in
              assert (m >= 0);
              Dst.complement_if (Src.is_complemented s) m)
            (Src.fanin src n)
        in
        map.(n) <- B.of_kind dst (Src.gate_kind src n) fanins)
      (T.order src);
    Src.foreach_po src (fun s ->
        let m = map.(Src.node_of_signal s) in
        Dst.create_po dst (Dst.complement_if (Src.is_complemented s) m));
    dst
end

(* Same-type copy that drops dangling and dead nodes. *)
module Cleanup (N : sig
  include Intf.TRAVERSABLE

  include
    Intf.CONSTRUCT
      with type t := t
       and type node := int
       and type signal := Signal.t
end) =
struct
  module C = Make (N) (N)

  let cleanup = C.convert
end
