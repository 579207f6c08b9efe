(* Functional reduction (SAT sweeping, FRAIG-style): [Sweep] proves
   functionally equivalent nodes, and each proven node is merged into its
   representative with [substitute_node].  Structural hashing only merges
   syntactically equal nodes — this pass merges *functionally* equal ones,
   which neither rewriting nor resubstitution necessarily finds.

   Generic over the representation: simulation and CNF encoding both
   dispatch on gate kinds through the network interface API. *)

module Make (N : Network.Intf.SWEEPABLE) = struct
  module Sw = Sweep.Make (N)
  module T = Network.Topo.Make (N)
  module CoM = Cost.Merge (N)

  type stats = {
    classes : int;  (* candidate classes with >= 2 members *)
    proved : int;  (* SAT-proved equivalent pairs *)
    refuted : int;  (* SAT counterexamples *)
    unknown : int;  (* conflict budget exhausted *)
    cost_skipped : int;  (* proved merges rejected by the objective *)
  }

  let run (net : N.t) ?(trace = Obs.Trace.null) ?(cost = Cost.Spec.Area)
      () : stats =
    let sw = Sw.run net in
    (* Representatives are topologically earlier, so no merge can close a
       cycle.  Outputs first: inputs-first merges let structural hashing
       rename upper nodes out of their own merges (div kept 2,403 gates,
       not 1,792).  Merging adds no nodes, so additive objectives always
       improve; depth also needs the survivor no deeper than [n]. *)
    let skipped = ref 0 in
    List.iter
      (fun n ->
        let r = sw.Sw.repr.(n) in
        let keep = N.node_of_signal r in
        if keep <> n && (not (N.is_dead net n)) && not (N.is_dead net keep)
        then
          if CoM.ok cost net ~keep ~drop:n then N.substitute_node net n r
          else incr skipped)
      (List.rev (T.order net));
    let st = sw.Sw.stats in
    (* one event: the verdicts, the summed SAT time and the solver's
       kernel counters (conflicts, clause tiers, minimization and
       inprocessing work) *)
    if Obs.Trace.enabled trace then
      Obs.Trace.report trace ~algo:"fraig"
        ([
           ("classes", st.classes);
           ("proved", st.proved);
           ("refuted", st.refuted);
           ("unknown", st.unknown);
           ("cost_skipped", !skipped);
           ("sat_ns", st.sat_ns);
         ]
        @ List.map
            (fun (k, v) -> ("solver_" ^ k, v))
            (Satkit.Solver.stats sw.Sw.solver));
    {
      classes = st.classes;
      proved = st.proved;
      refuted = st.refuted;
      unknown = st.unknown;
      cost_skipped = !skipped;
    }
end
