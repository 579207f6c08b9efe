(* Top-down reconvergence-driven cut computation (paper §2.2.1, after
   Mishchenko's construction): starting from the root, the leaf whose
   expansion adds the fewest new leaves is expanded repeatedly while the
   leaf count stays within the limit.  Reconvergent paths make expansions
   with zero or negative cost possible, which is what gives resubstitution
   its divisors. *)

module Make (N : Network.Intf.TRAVERSABLE) = struct
  (* Cost of replacing leaf [l] by its fanins: number of fanins that are not
     yet part of the cut, minus one (for [l] itself leaving). *)
  let expansion_cost (t : N.t) id l =
    let fanin = N.fanin t l in
    let fresh = ref (-1) in
    for i = 0 to Array.length fanin - 1 do
      if N.visited t (N.node_of_signal fanin.(i)) <> id then incr fresh
    done;
    !fresh

  (* Compute a reconvergence-driven cut of at most [max_leaves] leaves for
     [root], in the order the leaves joined the cut.  Constants never
     appear as leaves.

     The cut lives in [buf.(0 .. !n - 1)], oldest leaf first; every node
     marked [id] has been part of the cut (or is the root).  The leaf
     expanded next is the first of minimum cost scanning newest first. *)
  let compute (t : N.t) ?(max_leaves = 8) (root : N.node) : N.node array =
    let id = N.new_traversal_id t in
    N.set_visited t root id;
    (* expansions never grow the cut past [max_leaves] (nor past the
       network); only the root's own fanins can start it wider *)
    let buf =
      Array.make (max (min max_leaves (N.size t)) (N.fanin_size t root)) 0
    in
    let n = ref 0 in
    let add_fanins g =
      let fanin = N.fanin t g in
      for i = 0 to Array.length fanin - 1 do
        let c = N.node_of_signal fanin.(i) in
        if N.visited t c <> id then begin
          N.set_visited t c id;
          if not (N.is_constant t c) then begin
            buf.(!n) <- c;
            incr n
          end
        end
      done
    in
    add_fanins root;
    let continue_expansion = ref true in
    while !continue_expansion do
      let best = ref (-1) and best_cost = ref max_int in
      for i = !n - 1 downto 0 do
        let l = buf.(i) in
        if N.is_gate t l then begin
          let c = expansion_cost t id l in
          if c < !best_cost then begin
            best := i;
            best_cost := c
          end
        end
      done;
      if !best < 0 || !n + !best_cost > max_leaves then
        continue_expansion := false
      else begin
        let l = buf.(!best) in
        Array.blit buf (!best + 1) buf !best (!n - !best - 1);
        decr n;
        add_fanins l
      end
    done;
    Array.sub buf 0 !n
end
