(* Topological traversal: the one post-order DFS behind every
   fanins-first walk, from the algorithms to the converters and writers.
   Node creation order is topological until the first [substitute_node];
   code that restructures the graph therefore traverses via this DFS. *)

module Make (N : Intf.TRAVERSABLE) = struct
  (* Post-order DFS under traversal mark [id]: [f] sees every gate
     reachable from [n] and not yet marked [id], after its fanins. *)
  let rec visit t id f n =
    if N.visited t n <> id then begin
      N.set_visited t n id;
      if N.is_gate t n then begin
        Array.iter (fun s -> visit t id f (N.node_of_signal s)) (N.fanin t n);
        f n
      end
    end

  (* The gates one [walk] feeds to its callback, in that order. *)
  let collect walk =
    let acc = ref [] in
    walk (fun n -> acc := n :: !acc);
    List.rev !acc

  (* Gates reachable from the primary outputs, fanins first. *)
  let order (t : N.t) : N.node list =
    let id = N.new_traversal_id t in
    collect (fun f -> N.foreach_po t (fun s -> visit t id f (N.node_of_signal s)))

  (* All live gates (including dangling ones), fanins first. *)
  let order_all (t : N.t) : N.node list =
    let id = N.new_traversal_id t in
    collect (fun f -> N.foreach_gate t (visit t id f))

  (* Gates between [leaves] and [root] (root included, leaves not),
     fanins first. *)
  let cone (t : N.t) ~(leaves : N.node array) (root : N.node) : N.node list =
    let id = N.new_traversal_id t in
    Array.iter (fun l -> N.set_visited t l id) leaves;
    collect (fun f -> visit t id f root)

  (* Does the structural cone of [root], cut off at [leaves], contain [n]?
     Used to guard substitutions against cycles when structural hashing
     resolves a freshly built candidate to existing nodes.  The cone is
     bounded by the candidate structure, so this stays cheap.  Takes two
     traversal ids: one marks the leaves, one the gates already seen. *)
  let cone_contains (t : N.t) ~(root : N.node) ~(leaves : N.node array)
      (n : N.node) : bool =
    let stop = N.new_traversal_id t in
    let seen = N.new_traversal_id t in
    Array.iter (fun l -> N.set_visited t l stop) leaves;
    let rec go m =
      m = n
      ||
      let v = N.visited t m in
      v <> stop && v <> seen && N.is_gate t m
      &&
      (N.set_visited t m seen;
       Array.exists (fun s -> go (N.node_of_signal s)) (N.fanin t m))
    in
    go root
end
