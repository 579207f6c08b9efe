(* Refactoring (paper Algorithm 4): collapse the maximum fanout-free cone
   of a node into a truth table and resynthesize it from scratch as a
   factored form, replacing the cone when the new structure is cheaper.
   Collapsing whole cones (rather than small cuts) lets refactoring
   overcome structural bias that peephole rewriting cannot see past. *)

module Make (N : Network.Intf.NETWORK) = struct
  module T = Network.Topo.Make (N)
  module M = Mffc.Make (N)
  module W = Window.Make (N)
  module B = Network.Build.Make (N)
  module Co = Cost.Make (N)

  (* Evaluate replacing the MFFC of [n] by a resynthesized structure;
     substitutes when the gain (measured by the shared cost engine) passes
     the threshold. *)
  let try_node eng net n ~allow_zero_gain ~tried ~rejected =
    let leaves = M.leaves net n in
    let leaves = List.filter (fun l -> not (N.is_constant net l)) leaves in
    let k = List.length leaves in
    (* at most 10 leaves: the MFFC's function is resynthesized from its
       truth table *)
    if k < 1 || k > 10 then false
    else begin
      let w = W.of_cut net n (Array.of_list leaves) in
      let root_tt = W.find net (W.simulate net w) n in
      let leaf_sigs = Array.map N.signal_of_node w.W.leaves in
      let mark = eng.Co.mark net in
      let s = B.of_tt net leaf_sigs root_tt in
      let root = N.node_of_signal s in
      if root = n || T.cone_contains net ~root ~leaves:w.W.leaves n then begin
        N.take_out_if_dead net root;
        false
      end
      else begin
        incr tried;
        let gain = Co.gain eng net ~mark ~root n in
        if Co.accept ~zero_gain:allow_zero_gain eng gain then begin
          N.substitute_node net n s;
          true
        end
        else begin
          incr rejected;
          N.take_out_if_dead net root;
          false
        end
      end
    end

  (* One refactoring pass; returns the number of substitutions. *)
  let run (net : N.t) ?(trace = Obs.Trace.null) ?(cost = Cost.Spec.Area)
      ?(allow_zero_gain = false) () : int =
    let eng = Co.engine cost in
    let substitutions = ref 0 in
    let tried = ref 0 and rejected = ref 0 in
    List.iter
      (fun n ->
        if
          N.is_gate net n
          && (not (N.is_dead net n))
          && N.ref_count net n > 0
          && try_node eng net n ~allow_zero_gain ~tried ~rejected
        then incr substitutions)
      (T.order net);
    Obs.Trace.report trace ~algo:"refactor"
      [
        ("tried", !tried);
        ("accepted", !substitutions);
        ("rejected", !rejected);
      ];
    !substitutions
end
