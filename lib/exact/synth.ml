(* SAT-based exact synthesis of Boolean chains (paper §2.2.2, refs [9,10]).

   The encoding is the standard single-selection-variable (SSV) scheme over
   normal Boolean chains: for a candidate gate count [r] we introduce
   - simulation variables  x(i,t): value of gate i on minterm t,
   - selection variables   s(i,c): gate i picks fanin combination c,
   - operator variables    o(i,p): bit p of gate i's (normal) operator,
   and ask a SAT solver whether the last gate can realize the target on all
   minterms.  [r] is incremented until SAT, which yields a size-optimal
   chain for the given operator set.

   Operator sets make the same encoder serve different representations
   (paper layer 4: specialized encodings, transparent to the user):
   AND-family ops for AIGs, +XOR for XAGs, MAJ-family ops with a constant
   fanin candidate for MIGs (+XOR3 for XMGs). *)

open Kitty

type config = {
  arity : int;
  allowed_ops : Tt.t list;  (* normal operators over [arity] variables *)
  allow_constant : bool;    (* offer constant-0 as a fanin candidate *)
  max_gates : int;
  conflict_budget : int;    (* per SAT call; 0 = unlimited *)
}

(* AND with optionally complemented inputs / output covers AND, OR and the
   two difference functions; these are the normal members. *)
let and_family =
  List.filter_map
    (fun hex ->
      let tt = Tt.of_hex 2 hex in
      if Tt.get_bit tt 0 = 0 then Some tt else None)
    [ "8" (* a & b *); "2" (* a & !b *); "4" (* !a & b *); "e" (* a | b *) ]

let xor2 = Tt.of_hex 2 "6"

(* MAJ with at most one complemented input (the normal members of the
   maj-with-complements family). *)
let maj_family =
  let m = Network.Kind.function_of Network.Kind.Maj 3 in
  [ m; Tt.flip m 0; Tt.flip m 1; Tt.flip m 2 ]

let xor3 = Tt.(nth_var 3 0 ^: nth_var 3 1 ^: nth_var 3 2)

let aig_config =
  { arity = 2; allowed_ops = and_family; allow_constant = false;
    max_gates = 10; conflict_budget = 10_000 }

let xag_config =
  { arity = 2; allowed_ops = xor2 :: and_family; allow_constant = false;
    max_gates = 10; conflict_budget = 10_000 }

let mig_config =
  { arity = 3; allowed_ops = maj_family; allow_constant = true;
    max_gates = 7; conflict_budget = 10_000 }

let xmg_config =
  { arity = 3; allowed_ops = xor3 :: maj_family; allow_constant = true;
    max_gates = 7; conflict_budget = 10_000 }

type result =
  | Const of bool
  | Projection of int * bool  (* variable, complemented *)
  | Chain of Chain.t
  | Failed

(* -- telemetry --

   Process-wide atomic counters of the SAT work exact synthesis burns.
   exact sits below the observability layer (and is called concurrently
   from the partition engine's domains), so the counters are lock-free
   atomics here and the flow layer publishes [telemetry ()] into its
   metrics sink; per-pass deltas come from sampling around a pass. *)

let t_calls = Atomic.make 0        (* SAT solver invocations *)
let t_sat = Atomic.make 0
let t_unsat = Atomic.make 0
let t_unknown = Atomic.make 0
let t_conflicts = Atomic.make 0
let t_propagations = Atomic.make 0
let t_decisions = Atomic.make 0
let t_restarts = Atomic.make 0

let bump c n = ignore (Atomic.fetch_and_add c n)

let note_result = function
  | Satkit.Solver.Sat -> bump t_sat 1
  | Satkit.Solver.Unsat -> bump t_unsat 1
  | Satkit.Solver.Unknown -> bump t_unknown 1

let note_counters counters =
  let g k = match List.assoc_opt k counters with Some v -> v | None -> 0 in
  bump t_conflicts (g "conflicts");
  bump t_propagations (g "propagations");
  bump t_decisions (g "decisions");
  bump t_restarts (g "restarts")

let telemetry () =
  [
    ("calls", Atomic.get t_calls);
    ("sat", Atomic.get t_sat);
    ("unsat", Atomic.get t_unsat);
    ("unknown", Atomic.get t_unknown);
    ("solver_conflicts", Atomic.get t_conflicts);
    ("solver_propagations", Atomic.get t_propagations);
    ("solver_decisions", Atomic.get t_decisions);
    ("solver_restarts", Atomic.get t_restarts);
  ]

let reset_telemetry () =
  List.iter
    (fun c -> Atomic.set c 0)
    [ t_calls; t_sat; t_unsat; t_unknown; t_conflicts; t_propagations;
      t_decisions; t_restarts ]

(* choose [k] elements of [candidates] (ascending combinations) *)
let combinations k candidates =
  let rec go k cands =
    if k = 0 then [ [] ]
    else
      match cands with
      | [] -> []
      | c :: rest ->
        List.map (fun combo -> c :: combo) (go (k - 1) rest) @ go k rest
  in
  List.map Array.of_list (go k candidates)

(* try to synthesize with exactly [r] gates; [f] is normal (f(0...0) = 0).
   One SAT instance covers every DAG topology of [r] gates. *)
let synthesize_fixed_size config f r =
  let n = Tt.num_vars f in
  let num_minterms = (1 lsl n) - 1 in
  let k = config.arity in
  let num_op_bits = (1 lsl k) - 1 in
  (* candidates, as chain signal indices: 0 = const, 1..n inputs, n+1+i gates *)
  let candidates_for i =
    (if config.allow_constant then [ 0 ] else [])
    @ List.init n (fun v -> 1 + v)
    @ List.init i (fun g -> n + 1 + g)
  in
  let combos =
    Array.init r (fun i -> Array.of_list (combinations k (candidates_for i)))
  in
  let pos v = Satkit.Lit.of_var v ~negated:false in
  let neg v = Satkit.Lit.of_var v ~negated:true in
  let s = Satkit.Solver.create () in
  let fresh =
    let counter = ref (-1) in
    fun () ->
      incr counter;
      ignore (Satkit.Solver.new_var s);
      !counter
  in
  (* simulation vars: x.(i).(t-1) *)
  let x = Array.init r (fun _ -> Array.init num_minterms (fun _ -> fresh ())) in
  (* operator vars: o.(i).(p-1) *)
  let o = Array.init r (fun _ -> Array.init num_op_bits (fun _ -> fresh ())) in
  let sel = Array.init r (fun i -> Array.map (fun _ -> fresh ()) combos.(i)) in
  (* exactly-one selection per gate *)
  for i = 0 to r - 1 do
    Satkit.Solver.add_clause s (Array.to_list (Array.map pos sel.(i)));
    let m = Array.length sel.(i) in
    for a = 0 to m - 1 do
      for b = a + 1 to m - 1 do
        Satkit.Solver.add_clause s [ neg sel.(i).(a); neg sel.(i).(b) ]
      done
    done
  done;
  (* operator restriction: block every bit pattern outside the allowed set *)
  let allowed_patterns =
    List.map
      (fun tt ->
        let p = ref 0 in
        for b = 1 to num_op_bits do
          if Tt.get_bit tt b = 1 then p := !p lor (1 lsl (b - 1))
        done;
        !p)
      config.allowed_ops
  in
  for i = 0 to r - 1 do
    for pat = 0 to (1 lsl num_op_bits) - 1 do
      if not (List.mem pat allowed_patterns) then
        Satkit.Solver.add_clause s
          (List.init num_op_bits (fun b ->
               if (pat lsr b) land 1 = 1 then neg o.(i).(b) else pos o.(i).(b)))
    done
  done;
  (* value of candidate [j] on minterm [t]: either a known constant or a
     simulation variable *)
  let candidate_value j t =
    if j = 0 then `Known false
    else if j <= n then `Known ((t lsr (j - 1)) land 1 = 1)
    else `Var x.(j - n - 1).(t - 1)
  in
  (* semantics clauses *)
  for i = 0 to r - 1 do
    Array.iteri
      (fun ci combo ->
        for t = 1 to num_minterms do
          (* enumerate fanin value assignments *)
          for a = 0 to (1 lsl k) - 1 do
            (* antecedent literals; [skip] when a fixed fanin contradicts *)
            let skip = ref false in
            let base = ref [ neg sel.(i).(ci) ] in
            for m = 0 to k - 1 do
              let want = (a lsr m) land 1 = 1 in
              match candidate_value combo.(m) t with
              | `Known v -> if v <> want then skip := true
              | `Var xv -> base := (if want then neg xv else pos xv) :: !base
            done;
            if not !skip then begin
              if a = 0 then
                (* normality: all-zero inputs give zero output *)
                Satkit.Solver.add_clause s (neg x.(i).(t - 1) :: !base)
              else begin
                Satkit.Solver.add_clause s
                  (neg x.(i).(t - 1) :: pos o.(i).(a - 1) :: !base);
                Satkit.Solver.add_clause s
                  (pos x.(i).(t - 1) :: neg o.(i).(a - 1) :: !base)
              end
            end
          done
        done)
      combos.(i)
  done;
  (* every gate but the last must feed some later gate *)
  for i = 0 to r - 2 do
    let users = ref [] in
    for i' = i + 1 to r - 1 do
      Array.iteri
        (fun ci combo ->
          if Array.exists (fun j -> j = n + 1 + i) combo then
            users := pos sel.(i').(ci) :: !users)
        combos.(i')
    done;
    Satkit.Solver.add_clause s !users
  done;
  (* the last gate realizes the target *)
  for t = 1 to num_minterms do
    let l = if Tt.get_bit f t = 1 then pos x.(r - 1).(t - 1) else neg x.(r - 1).(t - 1) in
    Satkit.Solver.add_clause s [ l ]
  done;
  let decode () =
    Array.init r (fun i ->
        let ci =
          let rec find j =
            if j >= Array.length sel.(i) then assert false
            else if Satkit.Solver.model_value s sel.(i).(j) then j
            else find (j + 1)
          in
          find 0
        in
        let op = Tt.create k in
        for b = 1 to num_op_bits do
          if Satkit.Solver.model_value s o.(i).(b - 1) then Tt.set_bit op b
        done;
        { Chain.fanins = Array.copy combos.(i).(ci); op })
  in
  let verdict = Satkit.Solver.solve ~conflict_budget:config.conflict_budget s in
  bump t_calls 1;
  note_result verdict;
  note_counters (Satkit.Solver.stats s);
  match verdict with
  | Satkit.Solver.Unsat -> `Unsat
  | Satkit.Solver.Unknown -> `Unknown
  | Satkit.Solver.Sat -> `Sat (decode ())

(* Size-optimal synthesis of [f]; increments the gate count until SAT. *)
let synthesize config f =
  let n = Tt.num_vars f in
  if Tt.is_const0 f then Const false
  else if Tt.is_const1 f then Const true
  else begin
    (* projections *)
    let proj = ref None in
    for v = 0 to n - 1 do
      if Tt.equal f (Tt.nth_var n v) then proj := Some (v, false)
      else if Tt.equal f (Tt.( ~: ) (Tt.nth_var n v)) then proj := Some (v, true)
    done;
    match !proj with
    | Some (v, c) -> Projection (v, c)
    | None ->
      let out_complement = Tt.get_bit f 0 = 1 in
      let target = if out_complement then Tt.( ~: ) f else f in
      let finish steps =
        let chain = { Chain.num_inputs = n; steps; out_complement } in
        assert (Tt.equal (Chain.simulate chain) f);
        Chain chain
      in
      let rec loop r =
        if r > config.max_gates then Failed
        else
          match synthesize_fixed_size config target r with
          | `Unsat -> loop (r + 1)
          | `Unknown -> Failed
          | `Sat steps -> finish steps
      in
      loop 1
  end
