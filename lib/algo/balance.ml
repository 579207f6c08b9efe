(* Generic tree balancing (paper Algorithm 2).

   Step 1 groups together adjacent gates of the same commutative-associative
   kind — AND trees, XOR trees, and MAJ trees that share a common operand u
   (the paper's <x u <y u z>> = <<x u y> u z> rule; a constant u yields the
   AND/OR trees of MIGs).  A gate joins its parent's group only when the
   connecting edge is not complemented and it has no external fanout
   (paper: "no complemented edges or external fanout, except for the
   root").  Step 2 rebuilds each group as a balanced tree, combining the
   two earliest-arriving operands first, which never increases the gate
   count and often decreases it through structural hashing. *)

module Make (N : Network.Intf.NETWORK) = struct
  module T = Network.Topo.Make (N)
  module Dp = Depth.Make (N)
  module Co = Cost.Make (N)

  (* Grow the group of AND/XOR gates of kind [kind] rooted at [n]; returns
     the leaf signals (possibly complemented). *)
  let grow_group2 (net : N.t) kind n =
    let leaves = ref [] in
    let rec go s ~is_root =
      let c = N.node_of_signal s in
      if
        (is_root
        || ((not (N.is_complemented s))
           && N.ref_count net c = 1))
        && N.is_gate net c
        && Network.Kind.equal (N.gate_kind net c) kind
      then N.foreach_fanin net c (fun f -> go f ~is_root:false)
      else leaves := s :: !leaves
    in
    go (N.signal_of_node n) ~is_root:true;
    List.rev !leaves

  (* Grow a MAJ group rooted at [n] with shared operand [u]; returns the
     non-[u] leaf signals. *)
  let grow_group_maj (net : N.t) n u =
    let leaves = ref [] in
    let rec go s ~is_root =
      let c = N.node_of_signal s in
      let fanins = if N.is_gate net c then N.fanin net c else [||] in
      if
        (is_root || ((not (N.is_complemented s)) && N.ref_count net c = 1))
        && N.is_gate net c
        && Network.Kind.equal (N.gate_kind net c) Network.Kind.Maj
        && Array.exists (fun f -> f = u) fanins
      then begin
        (* consume exactly one occurrence of u, recurse on the others *)
        let seen_u = ref false in
        Array.iter
          (fun f ->
            if f = u && not !seen_u then seen_u := true
            else go f ~is_root:false)
          fanins
      end
      else leaves := s :: !leaves
    in
    go (N.signal_of_node n) ~is_root:true;
    List.rev !leaves

  (* Rebuild a group as a balanced tree over [leaves], combining the two
     lowest-level operands first. *)
  let rebuild (net : N.t) ~level_of combine leaves =
    let module Pq = struct
      (* tiny mergeable priority list keyed by level *)
      let insert l x lst = List.merge (fun (a, _) (b, _) -> compare a b) [ (l, x) ] lst
    end in
    let q =
      List.sort
        (fun (a, _) (b, _) -> compare a b)
        (List.map (fun s -> (level_of (N.node_of_signal s), s)) leaves)
    in
    let rec go = function
      | [] -> invalid_arg "Balance.rebuild: empty group"
      | [ (_, s) ] -> s
      | (l1, s1) :: (l2, s2) :: rest ->
        let s = combine net s1 s2 in
        go (Pq.insert (max l1 l2 + 1) s rest)
    in
    go q

  (* One balancing pass; returns the accumulated gain (in units of the
     cost objective) of the accepted rebuilds. *)
  let run ?(trace = Obs.Trace.null) ?(cost = Cost.Spec.Area) (net : N.t) : int =
    let tried = ref 0 in
    let level_of = Dp.overlay net in
    let substitutions = ref 0 and total_gain = ref 0 in
    let apply n leaves combine =
      if List.length leaves >= 3 then begin
        incr tried;
        (* the rebuilt tree computes the same function; for additive
           objectives it never costs more than the group it replaces
           (structural hashing only removes gates), so the zero-gain
           accept reproduces the seed's unconditional substitution while
           still rejecting objective-worsening rebuilds under other
           costs; the rebuilt signal carries any output complement *)
        match
          Co.replace ~zero_gain:true cost net
            ~leaves:(Array.of_list (List.map N.node_of_signal leaves))
            n
            (fun () -> Some (rebuild net ~level_of combine leaves))
        with
        | Co.Replaced gain ->
          incr substitutions;
          total_gain := !total_gain + gain
        | Co.No_candidate | Co.Cycle | Co.Rejected _ -> ()
      end
    in
    (* outputs-first so that maximal groups are balanced before their
       sub-groups are considered *)
    let nodes = List.rev (T.order net) in
    List.iter
      (fun n ->
        if N.is_gate net n && not (N.is_dead net n) then begin
          match N.gate_kind net n with
          | Network.Kind.And ->
            apply n (grow_group2 net Network.Kind.And n) N.create_and
          | Network.Kind.Xor ->
            apply n (grow_group2 net Network.Kind.Xor n) N.create_xor
          | Network.Kind.Maj ->
            (* try each fanin as the shared operand; balance the largest group *)
            let best = ref [] and best_u = ref (N.constant false) in
            Array.iter
              (fun u ->
                let g = grow_group_maj net n u in
                if List.length g > List.length !best then begin
                  best := g;
                  best_u := u
                end)
              (N.fanin net n);
            let u = !best_u in
            apply n !best (fun net a b -> N.create_maj net u a b)
          | Network.Kind.Lut _ | Network.Kind.Const | Network.Kind.Pi -> ()
        end)
      nodes;
    Obs.Trace.report trace ~algo:"balance"
      [
        ("tried", !tried);
        ("accepted", !substitutions);
        ("rejected", !tried - !substitutions);
        ("gain", !total_gain);
      ];
    !total_gain
end
