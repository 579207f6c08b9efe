(* Logic depth under the unit-delay model — the paper's Algorithm 1,
   expressed against the network interface API only. *)

module Make (N : Network.Intf.TRAVERSABLE) = struct
  module T = Network.Topo.Make (N)

  (* Level of every node reachable from the outputs (array indexed by
     node id; 0 for every other node) and the network depth. *)
  let compute (t : N.t) : int array * int =
    let levels = Array.make (N.size t) 0 in
    List.iter
      (fun n ->
        let l = ref 0 in
        N.foreach_fanin t n (fun s ->
            l := max !l levels.(N.node_of_signal s));
        levels.(n) <- !l + 1)
      (T.order t);
    let depth = ref 0 in
    N.foreach_po t (fun s -> depth := max !depth levels.(N.node_of_signal s));
    (levels, !depth)

  let depth t = snd (compute t)

  (* Level lookup for a pass that builds nodes as it goes: nodes that
     existed when the overlay was taken read [compute]'s levels (0 for a
     gate no output reaches); a node created later is levelled from its
     fanins on first query and memoized. *)
  let overlay (t : N.t) : N.node -> int =
    let levels, _ = compute t in
    let memo = Hashtbl.create 64 in
    let rec level_of n =
      if n < Array.length levels then levels.(n)
      else
        match Hashtbl.find_opt memo n with
        | Some l -> l
        | None ->
          let l = ref 0 in
          N.foreach_fanin t n (fun s -> l := max !l (level_of (N.node_of_signal s)));
          let l = !l + if N.is_gate t n then 1 else 0 in
          Hashtbl.replace memo n l;
          l
    in
    level_of
end
