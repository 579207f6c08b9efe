(* SAT sweeping, the one proof engine behind functional reduction ([Fraig])
   and equivalence checking ([Cec]), as in mockturtle's functional
   reduction and ABC's sweeping CEC.  One random simulation groups nodes
   into candidate classes by polarity-canonical signature.  In topological
   order, on one Tseitin encoding of the network (gates by kind, LUTs by
   ISOP covers), each node is proved against at most three earlier class
   members by two solves under assumptions; every proof goes back into the
   solver as binary clauses, so later proofs build on earlier ones. *)

open Kitty
module Solver = Satkit.Solver
module L = Satkit.Lit

type stats = {
  mutable classes : int;  (* candidate classes with >= 2 members *)
  mutable proved : int;  (* SAT-proved equivalent pairs *)
  mutable refuted : int;  (* SAT counterexamples *)
  mutable unknown : int;  (* per-pair conflict budget exhausted *)
  mutable sat_ns : int;  (* SAT kernel time, summed, in nanoseconds *)
}

(* 2^12 simulation patterns (512 bytes per node); tries per node;
   conflicts per solve *)
let sim_vars = 12
let max_tries = 3
let pair_budget = 2_000

module Make (N : Network.Intf.TRAVERSABLE) = struct
  module Sim = Simulate.Make (N)
  module T = Network.Topo.Make (N)

  type t = {
    net : N.t;
    solver : Solver.t;
    lits : L.t array;  (* CNF literal of each node; -1 where unreachable *)
    values : Tt.t array;  (* simulation signature of each node *)
    repr : N.signal array;  (* proven earlier class member, or the node *)
    stats : stats;
  }

  let lit_of lits s =
    let l = lits.(N.node_of_signal s) in
    if N.is_complemented s then L.neg l else l

  (* Tseitin clauses for gate [n] whose output literal is [o] *)
  let encode solver net lits n o =
    let add = Solver.add_clause solver and neg = L.neg in
    let ins = Array.map (lit_of lits) (N.fanin net n) in
    match N.gate_kind net n with
    | Network.Kind.And ->
      Array.iter (fun l -> add [ neg o; l ]) ins;
      add (o :: Array.to_list (Array.map neg ins))
    | Network.Kind.Xor ->
      assert (Array.length ins = 2);
      let a = ins.(0) and b = ins.(1) in
      add [ neg o; a; b ];
      add [ neg o; neg a; neg b ];
      add [ o; a; neg b ];
      add [ o; neg a; b ]
    | Network.Kind.Maj ->
      assert (Array.length ins = 3);
      (* any two inputs true force [o]; any two false force [neg o] *)
      List.iter
        (fun (i, j) ->
          add [ o; neg ins.(i); neg ins.(j) ];
          add [ neg o; ins.(i); ins.(j) ])
        [ (0, 1); (0, 2); (1, 2) ]
    | Network.Kind.Lut tt ->
      (* cube -> o for the on-set, cube -> neg o for the off-set *)
      let cover out f =
        List.iter
          (fun cube ->
            add
              (out
              :: List.map
                   (fun (v, pol) -> if pol then neg ins.(v) else ins.(v))
                   (Cube.literals cube)))
          (Isop.of_tt f)
      in
      cover o tt;
      cover (neg o) (Tt.( ~: ) tt)
    | Network.Kind.Const | Network.Kind.Pi -> assert false

  let value sw s =
    let v = sw.values.(N.node_of_signal s) in
    if N.is_complemented s then Tt.( ~: ) v else v

  (* Prove [a] = [b] with at most [budget] conflicts per solve (0: no
     bound).  Each proven implication is kept as a binary clause, so
     [Unsat] leaves the equivalence in the solver; after [Sat], [cex]
     reads the distinguishing input pattern. *)
  let prove sw ~budget a b =
    let implies x y =
      let t0 = Unix.gettimeofday () in
      let r =
        Solver.solve ~conflict_budget:budget ~assumptions:[ x; L.neg y ]
          sw.solver
      in
      sw.stats.sat_ns <-
        sw.stats.sat_ns + int_of_float ((Unix.gettimeofday () -. t0) *. 1e9);
      if r = Solver.Unsat then Solver.add_clause sw.solver [ L.neg x; y ];
      r
    in
    let la = lit_of sw.lits a and lb = lit_of sw.lits b in
    match implies la lb with Solver.Unsat -> implies lb la | r -> r

  let cex sw =
    Array.map
      (fun n -> Solver.model_value sw.solver (L.var sw.lits.(n)))
      (N.pis sw.net)

  (* The input pattern of the first simulated minterm on which [a] and [b]
     differ, if any: a counterexample found without the solver *)
  let sim_cex sw a b =
    let d = Tt.( ^: ) (value sw a) (value sw b) in
    if Tt.is_const0 d then None
    else begin
      let m = ref 0 in
      while Tt.get_bit d !m = 0 do incr m done;
      Some (Array.map (fun n -> Tt.get_bit sw.values.(n) !m = 1) (N.pis sw.net))
    end

  let run (net : N.t) : t =
    let solver = Solver.create () in
    let lits = Array.make (N.size net) (-1) in
    let fresh () = L.of_var (Solver.new_var solver) ~negated:false in
    lits.(0) <- fresh ();
    Solver.add_clause solver [ L.neg lits.(0) ];
    N.foreach_pi net (fun n -> lits.(n) <- fresh ());
    let order = T.order net in
    List.iter
      (fun n ->
        lits.(n) <- fresh ();
        encode solver net lits n lits.(n))
      order;
    let values =
      Sim.simulate net (Sim.random_values ~num_vars:sim_vars ~seed:1 net)
    in
    let repr = Array.init (N.size net) N.signal_of_node in
    let st = { classes = 0; proved = 0; refuted = 0; unknown = 0; sat_ns = 0 } in
    let sw = { net; solver; lits; values; repr; stats = st } in
    (* signature -> (nodes hashed there, first unmerged members with phase) *)
    let classes = Hashtbl.create 1024 in
    let visit n =
      let v = values.(n) and nv = Tt.( ~: ) values.(n) in
      let phase = Tt.compare nv v < 0 in
      let key = if phase then nv else v in
      let hits, members =
        Option.value (Hashtbl.find_opt classes key) ~default:(0, [])
      in
      if hits = 1 then st.classes <- st.classes + 1;
      let s = N.signal_of_node n in
      let rec try_members = function
        | [] when List.length members < max_tries -> members @ [ (n, phase) ]
        | [] -> members
        | (m, m_phase) :: rest -> (
          let sm = N.complement_if (m_phase <> phase) (N.signal_of_node m) in
          match prove sw ~budget:pair_budget s sm with
          | Solver.Unsat ->
            st.proved <- st.proved + 1;
            repr.(n) <- sm;
            members
          | Solver.Sat -> st.refuted <- st.refuted + 1; try_members rest
          | Solver.Unknown -> st.unknown <- st.unknown + 1; try_members rest)
      in
      Hashtbl.replace classes key (hits + 1, try_members members)
    in
    visit 0;
    N.foreach_pi net visit;
    List.iter visit order;
    sw
end
