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

  (* Replace the MFFC of [n] by a resynthesized structure when the gain
     (priced by the shared replacement step) passes the threshold. *)
  let try_node cost net n ~allow_zero_gain =
    let leaves = M.leaves net n in
    let leaves = List.filter (fun l -> not (N.is_constant net l)) leaves in
    let k = List.length leaves in
    (* at most 10 leaves: the MFFC's function is resynthesized from its
       truth table *)
    if k < 1 || k > 10 then Co.No_candidate
    else begin
      let w = W.of_cut net n (Array.of_list leaves) in
      let root_tt = W.find net (W.simulate net w) n in
      let leaf_sigs = Array.map N.signal_of_node w.W.leaves in
      Co.replace ~zero_gain:allow_zero_gain cost net ~leaves:w.W.leaves n
        (fun () -> Some (B.of_tt net leaf_sigs root_tt))
    end

  (* One refactoring pass; returns the accumulated gain (in units of the
     cost objective) of the accepted substitutions. *)
  let run (net : N.t) ?(trace = Obs.Trace.null) ?(cost = Cost.Spec.Area)
      ?(allow_zero_gain = false) () : int =
    let substitutions = ref 0 and total_gain = ref 0 in
    let tried = ref 0 in
    List.iter
      (fun n ->
        if N.is_gate net n && (not (N.is_dead net n)) && N.ref_count net n > 0
        then
          match try_node cost net n ~allow_zero_gain with
          | Co.No_candidate | Co.Cycle -> ()
          | Co.Rejected _ -> incr tried
          | Co.Replaced gain ->
            incr tried;
            incr substitutions;
            total_gain := !total_gain + gain)
      (T.order net);
    Obs.Trace.report trace ~algo:"refactor"
      [
        ("tried", !tried);
        ("accepted", !substitutions);
        ("rejected", !tried - !substitutions);
        ("gain", !total_gain);
      ];
    !total_gain
end
