(* Combinational equivalence checking by SAT sweeping.  Both networks,
   of possibly different representations, are instantiated into one AIG
   over shared primary inputs, so structural hashing merges the logic they
   share; [Sweep] then proves internal equivalences.  An output pair is
   settled once it is merged or proven.  A simulation mismatch is a
   counterexample found without the solver, and only the output pairs
   still open climb the conflict ladder. *)

type result =
  | Equivalent
  | Counterexample of bool array  (* PI assignment *)
  | Unknown

module Make (A : Network.Intf.TRAVERSABLE) (B : Network.Intf.TRAVERSABLE) = struct
  module Aig = Network.Aig
  module Ia = Network.Convert.Make (A) (Aig)
  module Ib = Network.Convert.Make (B) (Aig)
  module Sw = Sweep.Make (Aig)

  (* Budget ladder: escalating per-pair conflict budgets for the output
     pairs the sweep left open, so cheap instances answer fast and hard
     ones give up with [Unknown] instead of hanging (the fuzz oracle and
     partition guards depend on this). *)
  let default_ladder = [ 10_000; 100_000; 1_000_000 ]

  type report = {
    winner : string;
        (* "solver" (the sweep and ladder answered), "shape" (I/O
           mismatch) or "anomaly" (the encoding or the kernel raised) *)
    conflicts : int;  (* conflicts spent by the sweep and the ladder *)
    rungs_used : int;  (* ladder rungs consumed (0 = the sweep settled it) *)
  }

  (* One "cec" counters event per check: the report's conflicts and rungs,
     the sweep's verdicts, and the solver's kernel counters as [solver_*]
     keys, which Trace.summarize attributes to the enclosing pass span. *)
  let publish trace (sw : Sw.t) (rep : report) =
    if Obs.Trace.enabled trace then
      Obs.Trace.report trace ~algo:"cec"
        ([ ("conflicts", rep.conflicts); ("rungs", rep.rungs_used);
           ("proved", sw.stats.proved); ("refuted", sw.stats.refuted);
           ("unknown", sw.stats.unknown) ]
        @ List.map
            (fun (k, v) -> ("solver_" ^ k, v))
            (Satkit.Solver.stats sw.solver))

  (* [ladder] lists the per-pair conflict budgets of successive attempts,
     then [Unknown]; [~ladder:[]] requests a single unbounded attempt.
     A check has no wall-clock bound of its own: the ladder keeps it
     finite.  Flows poll their stop hook between passes (or pieces), never
     inside a check.

     A check never raises: if the encoding or the kernel throws (a bug,
     or a network operation that fails), the answer is [Unknown] with
     winner ["anomaly"].  The check is deterministic, so running it again
     would fail the same way.  Correctness guards built on CEC treat
     [Unknown] the way they treat a budget exhaustion. *)
  let check_full ?(trace = Obs.Trace.null) ?(ladder = default_ladder)
      (a : A.t) (b : B.t) : result * report =
    if A.num_pis a <> B.num_pis b || A.num_pos a <> B.num_pos b then
      (Counterexample [||], { winner = "shape"; conflicts = 0; rungs_used = 0 })
    else
      let attempt () =
        let m = Aig.create ~initial_capacity:(A.size a + B.size b) () in
        let pis = Array.init (A.num_pis a) (fun _ -> Aig.create_pi m) in
        let pa = Ia.instantiate m a pis and pb = Ib.instantiate m b pis in
        Array.iter2 (fun x y -> Aig.create_po m x; Aig.create_po m y) pa pb;
        let sw = Sw.run m and rungs = ref 0 in
        let exception Refuted of bool array in
        let repr s =
          Aig.complement_if (Aig.is_complemented s)
            sw.repr.(Aig.node_of_signal s)
        in
        let pairs =
          List.filter
            (fun (x, y) -> repr x <> repr y)
            (Array.to_list (Array.combine pa pb))
        in
        let rec climb pairs budgets =
          match (pairs, budgets) with
          | [], _ -> Equivalent
          | _, [] -> Unknown
          | _, budget :: rest ->
            incr rungs;
            let still_open (x, y) =
              match Sw.prove sw ~budget x y with
              | Satkit.Solver.Unsat -> false
              | Satkit.Solver.Unknown -> true
              | Satkit.Solver.Sat -> raise (Refuted (Sw.cex sw))
            in
            climb (List.filter still_open pairs) rest
        in
        let r =
          match List.find_map (fun (x, y) -> Sw.sim_cex sw x y) pairs with
          | Some cex -> Counterexample cex
          | None -> (
            try climb pairs (if ladder = [] then [ 0 ] else ladder)
            with Refuted cex -> Counterexample cex)
        in
        let rep =
          { winner = "solver";
            conflicts = Satkit.Solver.num_conflicts sw.solver;
            rungs_used = !rungs }
        in
        publish trace sw rep;
        (r, rep)
      in
      match attempt () with
      | r -> r
      | exception e ->
        Printf.eprintf "cec: solver anomaly (%s); answering UNKNOWN\n%!"
          (Printexc.to_string e);
        (Unknown, { winner = "anomaly"; conflicts = 0; rungs_used = 0 })

  let check ?trace ?ladder (a : A.t) (b : B.t) : result =
    fst (check_full ?trace ?ladder a b)
end
