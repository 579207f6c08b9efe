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

  (* Build [src]'s gates inside the existing [dst], given the destination
     signal of each source PI ([pis.(i)] for PI i); returns the destination
     signals of the source's POs.  [Partition.stitch] instantiates each
     piece this way. *)
  let instantiate (dst : Dst.t) (src : Src.t) (pis : Dst.signal array) :
      Dst.signal array =
    (* map source node -> destination signal *)
    let map = Array.make (Src.size src) (-1) in
    map.(0) <- Dst.constant false;
    Array.iteri (fun i n -> map.(n) <- pis.(i)) (Src.pis src);
    let resolve s =
      let m = map.(Src.node_of_signal s) in
      assert (m >= 0);
      Dst.complement_if (Src.is_complemented s) m
    in
    List.iter
      (fun n ->
        map.(n) <-
          B.of_kind dst (Src.gate_kind src n)
            (Array.map resolve (Src.fanin src n)))
      (T.order src);
    Array.map resolve (Src.pos src)

  let convert (src : Src.t) : Dst.t =
    let dst = Dst.create ~initial_capacity:(Src.size src) () in
    let pis = Array.init (Src.num_pis src) (fun _ -> Dst.create_pi dst) in
    Array.iter (Dst.create_po dst) (instantiate dst src pis);
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
