(* Functional reduction (SAT sweeping, FRAIG-style): random simulation
   groups nodes into candidate equivalence classes; a SAT solver proves or
   refutes each candidate pair; proven-equivalent nodes are merged with
   [substitute_node].  Structural hashing only merges syntactically equal
   nodes — this pass merges *functionally* equal ones, which neither
   rewriting nor resubstitution necessarily finds.

   Generic over the representation: simulation and CNF encoding both
   dispatch on gate kinds through the network interface API. *)

open Kitty

module Make (N : Network.Intf.SWEEPABLE) = struct
  module Sim = Simulate.Make (N)
  module T = Network.Topo.Make (N)
  module C = Cec.Make (N) (N)
  module CoM = Cost.Merge (N)

  type stats = {
    mutable classes : int;      (* candidate classes with >= 2 members *)
    mutable proved : int;       (* SAT-proved equivalent pairs *)
    mutable refuted : int;      (* SAT counterexamples *)
    mutable unknown : int;      (* conflict budget exhausted *)
    mutable cost_skipped : int; (* proved merges rejected by the objective *)
  }

  let run (net : N.t) ?(trace = Obs.Trace.null) ?(cost = Cost.Spec.Area)
      () : stats =
    let stats =
      {
        classes = 0;
        proved = 0;
        refuted = 0;
        unknown = 0;
        cost_skipped = 0;
      }
    in
    let measuring = Obs.Trace.enabled trace in
    (* SAT kernel time, summed over every proof, in nanoseconds *)
    let sat_ns = ref 0 in
    (* 1. signatures from random simulation *)
    let values =
      Sim.simulate net (Sim.random_values ~num_vars:8 ~seed:1 net)
    in
    (* 2. candidate classes, keyed by the polarity-canonical signature *)
    let classes : (string, (N.node * bool) list ref) Hashtbl.t =
      Hashtbl.create 256
    in
    let class_of n =
      let s = values.(n) in
      let sc = Tt.( ~: ) s in
      let phase = Tt.compare sc s < 0 in
      let key = Tt.to_hex (if phase then sc else s) in
      (key, phase)
    in
    let add n =
      let key, phase = class_of n in
      match Hashtbl.find_opt classes key with
      | Some l -> l := (n, phase) :: !l
      | None -> Hashtbl.add classes key (ref [ (n, phase) ])
    in
    (* constant and PIs first, then gates in topological order, so that the
       first member of each class is the earliest possible representative *)
    add 0;
    N.foreach_pi net add;
    List.iter add (T.order net);
    (* 3. prove candidate pairs on a static CNF of the whole network, in one
       incremental solver of the satkit kernel *)
    let solver = Satkit.Solver.create () in
    let const_var = Satkit.Solver.new_var solver in
    Satkit.Solver.add_clause solver [ Satkit.Lit.of_var const_var ~negated:true ];
    let pi_vars =
      Array.init (N.num_pis net) (fun _ -> Satkit.Solver.new_var solver)
    in
    let node_vars = C.encode_nodes (module N) net solver pi_vars const_var in
    let node_lit n = Satkit.Lit.of_var node_vars.(n) ~negated:false in
    (* prove all pairs against the class representative, collect merges *)
    let merges = ref [] in
    Hashtbl.iter
      (fun _key members ->
        match List.rev !members with
        | [] | [ _ ] -> ()
        | (rep, rep_phase) :: rest ->
          stats.classes <- stats.classes + 1;
          List.iter
            (fun (m, m_phase) ->
              (* claim: value(m) = value(rep) xor (m_phase xor rep_phase) *)
              let flip = m_phase <> rep_phase in
              let lr = node_lit rep and lm = node_lit m in
              let d = Satkit.Solver.new_var solver in
              let dp = Satkit.Lit.of_var d ~negated:false in
              let dn = Satkit.Lit.of_var d ~negated:true in
              (* d -> (lr xor lm xor flip) *)
              let lm' = if flip then Satkit.Lit.neg lm else lm in
              Satkit.Solver.add_clause solver [ dn; lr; lm' ];
              Satkit.Solver.add_clause solver
                [ dn; Satkit.Lit.neg lr; Satkit.Lit.neg lm' ];
              let t0 = if measuring then Unix.gettimeofday () else 0.0 in
              let verdict =
                Satkit.Solver.solve ~conflict_budget:2_000 ~assumptions:[ dp ]
                  solver
              in
              if measuring then
                sat_ns :=
                  !sat_ns + int_of_float ((Unix.gettimeofday () -. t0) *. 1e9);
              (match verdict with
              | Satkit.Solver.Unsat ->
                stats.proved <- stats.proved + 1;
                merges := (m, rep, flip) :: !merges
              | Satkit.Solver.Sat -> stats.refuted <- stats.refuted + 1
              | Satkit.Solver.Unknown -> stats.unknown <- stats.unknown + 1);
              (* retire the pair's miter variable *)
              Satkit.Solver.add_clause solver [ dn ])
            rest)
      classes;
    (* 4. apply merges (representatives are topologically earlier, so no
       cycles can arise).  Merging adds no nodes, so additive objectives
       always improve; the max-monoid (depth) additionally requires the
       survivor to be no deeper than the node it replaces. *)
    List.iter
      (fun (m, rep, flip) ->
        if
          (not (N.is_dead net m))
          && (not (N.is_dead net rep))
          && N.is_gate net m
        then
          if CoM.ok cost net ~keep:rep ~drop:m then
            N.substitute_node net m
              (N.complement_if flip (N.signal_of_node rep))
          else stats.cost_skipped <- stats.cost_skipped + 1)
      (List.rev !merges);
    (* one event: the verdicts, the summed SAT time and the shared
       solver's kernel counters (conflicts, clause tiers,
       minimization/inprocessing work) *)
    if measuring then
      Obs.Trace.report trace ~algo:"fraig"
        ([
           ("classes", stats.classes);
           ("proved", stats.proved);
           ("refuted", stats.refuted);
           ("unknown", stats.unknown);
           ("cost_skipped", stats.cost_skipped);
           ("sat_ns", !sat_ns);
         ]
        @ List.map
            (fun (k, v) -> ("solver_" ^ k, v))
            (Satkit.Solver.stats solver));
    stats
end
