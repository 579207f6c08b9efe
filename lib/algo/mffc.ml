(* Maximum fanout-free cones, computed with reference counters
   (paper §2.2.3): a gate belongs to the MFFC of [n] when removing [n]
   makes its reference count drop to zero. *)

module Make (N : Network.Intf.COUNTED) = struct
  (* The one MFFC walk: dereference [n]'s fanins recursively, folding [f]
     over every gate whose count drops to zero (root first, in DFS
     pre-order), then undo the walk.  Every reference count is restored
     on return; [init] for anything but a gate. *)
  let fold (t : N.t) (n : N.node) (f : 'a -> N.node -> 'a) (init : 'a) : 'a =
    if not (N.is_gate t n) then init
    else begin
      let rec deref acc m =
        let acc = f acc m in
        Array.fold_left
          (fun acc s ->
            let c = N.node_of_signal s in
            if N.decr_ref t c = 0 && N.is_gate t c then deref acc c else acc)
          acc (N.fanin t m)
      in
      let rec undo m =
        N.foreach_fanin t m (fun s ->
            let c = N.node_of_signal s in
            if N.incr_ref t c = 1 && N.is_gate t c then undo c)
      in
      let acc = deref init n in
      undo n;
      acc
    end

  (* Number of gates that die when [n] is removed (including [n]). *)
  let size (t : N.t) (n : N.node) : int = fold t n (fun k _ -> k + 1) 0

  (* The gates of the MFFC of [n], root first. *)
  let collect (t : N.t) (n : N.node) : N.node list =
    List.rev (fold t n (fun acc m -> m :: acc) [])

  (* Leaves of the MFFC of [n]: boundary signals feeding the cone from
     outside. *)
  let leaves (t : N.t) (n : N.node) : N.node list =
    let cone = collect t n in
    let id = N.new_traversal_id t in
    List.iter (fun m -> N.set_visited t m id) cone;
    let leaf_id = N.new_traversal_id t in
    let acc = ref [] in
    List.iter
      (fun m ->
        N.foreach_fanin t m (fun s ->
            let c = N.node_of_signal s in
            if N.visited t c <> id && N.visited t c <> leaf_id then begin
              N.set_visited t c leaf_id;
              acc := c :: !acc
            end))
      cone;
    List.rev !acc
end
