(* Combinational equivalence checking: a SAT miter over two networks of
   possibly different representations.  Gates are Tseitin-encoded from
   their kinds (LUTs through ISOP covers of both polarities), the primary
   inputs are shared, and the miter asserts that some output pair
   differs. *)

open Kitty

type result =
  | Equivalent
  | Counterexample of bool array  (* PI assignment *)
  | Unknown

module Make (A : Network.Intf.TRAVERSABLE) (B : Network.Intf.TRAVERSABLE) = struct
  module Ta = Network.Topo.Make (A)
  module Tb = Network.Topo.Make (B)

  (* Tseitin-encode one network into [solver]; returns the CNF variable of
     every node (index -1 where a node was not reachable).  [pi_vars.(i)] is
     the shared variable of primary input i.  Also used by [Fraig] for SAT
     sweeping. *)
  let encode_nodes (type t) (module N : Network.Intf.TRAVERSABLE with type t = t)
      (net : t) solver (pi_vars : int array) const_var : int array =
    let module Tn = Network.Topo.Make (N) in
    let node_var = Array.make (N.size net) (-1) in
    node_var.(0) <- const_var;
    Array.iteri (fun i n -> node_var.(n) <- pi_vars.(i)) (N.pis net);
    let lit_of_signal s =
      Satkit.Lit.of_var node_var.(N.node_of_signal s)
        ~negated:(N.is_complemented s)
    in
    List.iter
      (fun n ->
        let v = Satkit.Solver.new_var solver in
        node_var.(n) <- v;
        let out_pos = Satkit.Lit.of_var v ~negated:false in
        let out_neg = Satkit.Lit.of_var v ~negated:true in
        let ins = Array.map lit_of_signal (N.fanin net n) in
        let add = Satkit.Solver.add_clause solver in
        match N.gate_kind net n with
        | Network.Kind.And ->
          (* v -> each input; all inputs -> v *)
          Array.iter (fun l -> add [ out_neg; l ]) ins;
          add (out_pos :: Array.to_list (Array.map Satkit.Lit.neg ins))
        | Network.Kind.Xor ->
          assert (Array.length ins = 2);
          let a = ins.(0) and b = ins.(1) in
          let na = Satkit.Lit.neg a and nb = Satkit.Lit.neg b in
          add [ out_neg; a; b ];
          add [ out_neg; na; nb ];
          add [ out_pos; a; nb ];
          add [ out_pos; na; b ]
        | Network.Kind.Maj ->
          assert (Array.length ins = 3);
          let a = ins.(0) and b = ins.(1) and c = ins.(2) in
          let n_ l = Satkit.Lit.neg l in
          (* any two inputs true force v; any two false force !v *)
          add [ out_pos; n_ a; n_ b ];
          add [ out_pos; n_ a; n_ c ];
          add [ out_pos; n_ b; n_ c ];
          add [ out_neg; a; b ];
          add [ out_neg; a; c ];
          add [ out_neg; b; c ]
        | Network.Kind.Lut tt ->
          (* cube -> v for the on-set, cube -> !v for the off-set *)
          let clause_of_cube out cube =
            out
            :: List.map
                 (fun (var, pol) ->
                   if pol then Satkit.Lit.neg ins.(var) else ins.(var))
                 (Cube.literals cube)
          in
          List.iter (fun c -> add (clause_of_cube out_pos c)) (Isop.of_tt tt);
          List.iter
            (fun c -> add (clause_of_cube out_neg c))
            (Isop.of_tt (Tt.( ~: ) tt))
        | Network.Kind.Const | Network.Kind.Pi -> assert false)
      (Tn.order net);
    node_var

  (* Encode a network and return literals for its primary outputs. *)
  let encode (type t) (module N : Network.Intf.TRAVERSABLE with type t = t)
      (net : t) solver (pi_vars : int array) const_var =
    let node_var = encode_nodes (module N) net solver pi_vars const_var in
    Array.map
      (fun s ->
        Satkit.Lit.of_var node_var.(N.node_of_signal s)
          ~negated:(N.is_complemented s))
      (N.pos net)

  (* Build the miter into [solver]: shared PIs, both networks, per-output
     difference variables, OR-of-diffs.  Returns the shared PI variables
     (the counterexample decoder). *)
  let encode_miter (a : A.t) (b : B.t) solver : int array =
    let const_var = Satkit.Solver.new_var solver in
    Satkit.Solver.add_clause solver [ Satkit.Lit.of_var const_var ~negated:true ];
    let pi_vars =
      Array.init (A.num_pis a) (fun _ -> Satkit.Solver.new_var solver)
    in
    let pos_a = encode (module A) a solver pi_vars const_var in
    let pos_b = encode (module B) b solver pi_vars const_var in
    (* diff_i <-> (pa_i xor pb_i); assert OR diff_i *)
    let diffs =
      Array.map2
        (fun la lb ->
          let d = Satkit.Solver.new_var solver in
          let dp = Satkit.Lit.of_var d ~negated:false in
          let dn = Satkit.Lit.of_var d ~negated:true in
          let na = Satkit.Lit.neg la and nb = Satkit.Lit.neg lb in
          Satkit.Solver.add_clause solver [ dn; la; lb ];
          Satkit.Solver.add_clause solver [ dn; na; nb ];
          Satkit.Solver.add_clause solver [ dp; la; nb ];
          Satkit.Solver.add_clause solver [ dp; na; lb ];
          dp)
        pos_a pos_b
    in
    Satkit.Solver.add_clause solver (Array.to_list diffs);
    pi_vars

  (* Budget ladder: escalating per-attempt conflict budgets, so cheap
     instances answer fast and hard ones give up with [Unknown] instead of
     hanging (the fuzz oracle and partition guards depend on this). *)
  let default_ladder = [ 10_000; 100_000; 1_000_000 ]

  type report = {
    winner : string;
        (* "solver" (the SAT answer), "shape" (I/O mismatch) or "anomaly"
           (the encoding or the kernel raised) *)
    conflicts : int;      (* conflicts spent by the answering solver *)
    rungs_used : int;     (* ladder rungs consumed (1 = first try) *)
  }

  (* One "cec" counters event per check: the report's conflicts and rungs
     plus the answering solver's kernel counters as [solver_*] keys, which
     Trace.summarize attributes to the enclosing pass span. *)
  let publish_solver trace solver (rep : report) =
    if Obs.Trace.enabled trace then
      Obs.Trace.report trace ~algo:"cec"
        (("conflicts", rep.conflicts) :: ("rungs", rep.rungs_used)
        :: List.map
             (fun (k, v) -> ("solver_" ^ k, v))
             (Satkit.Solver.stats solver))

  (* SAT equivalence check.

     Budgets: [conflict_budget] > 0 keeps the historic single-attempt
     semantics.  Otherwise [ladder] applies — escalating attempts, then
     [Unknown]; [~ladder:[]] requests a single unbounded solve.

     [trace] publishes the kernel's counters into the sink.

     A check has no wall-clock bound of its own: the conflict ladder is
     what keeps it finite.  Flows poll their stop hook between passes
     (or pieces), never inside a check.

     A check never raises: if the encoding or the kernel throws (a bug,
     or a network operation that fails), the answer is [Unknown] with
     winner ["anomaly"].  The check is deterministic, so running it again
     would fail the same way.  Correctness guards built on CEC
     treat [Unknown] the way they treat a budget exhaustion. *)
  let check_full ?(trace = Obs.Trace.null) ?(conflict_budget = 0) ?ladder
      (a : A.t) (b : B.t) : result * report =
    let mismatch = A.num_pis a <> B.num_pis b || A.num_pos a <> B.num_pos b in
    if mismatch then
      (Counterexample [||], { winner = "shape"; conflicts = 0; rungs_used = 0 })
    else begin
      let rungs =
        if conflict_budget > 0 then [ conflict_budget ]
        else match ladder with Some l -> l | None -> default_ladder
      in
      let decode solver pi_vars = function
        | Satkit.Solver.Unsat -> Equivalent
        | Satkit.Solver.Unknown -> Unknown
        | Satkit.Solver.Sat ->
          Counterexample
            (Array.map (fun v -> Satkit.Solver.model_value solver v) pi_vars)
      in
      let single () =
        let solver = Satkit.Solver.create () in
        let pi_vars = encode_miter a b solver in
        let rec climb used = function
          | [] ->
            (* an empty ladder means one unbounded attempt *)
            if used = 0 then
              (decode solver pi_vars (Satkit.Solver.solve solver),
                used + 1 )
            else (Unknown, used)
          | budget :: rest -> (
            match Satkit.Solver.solve ~conflict_budget:budget solver with
            | Satkit.Solver.Unknown -> climb (used + 1) rest
            | r -> (decode solver pi_vars r, used + 1))
        in
        let r, used = climb 0 rungs in
        let rep =
          {
            winner = "solver";
            conflicts = Satkit.Solver.num_conflicts solver;
            rungs_used = used;
          }
        in
        publish_solver trace solver rep;
        (r, rep)
      in
      match single () with
      | r -> r
      | exception e ->
        Printf.eprintf "cec: solver anomaly (%s); answering UNKNOWN\n%!"
          (Printexc.to_string e);
        (Unknown, { winner = "anomaly"; conflicts = 0; rungs_used = 0 })
    end

  let check ?trace ?conflict_budget ?ladder (a : A.t) (b : B.t) : result =
    fst (check_full ?trace ?conflict_budget ?ladder a b)
end
