(* Layer-4 performance tweak: algebraic depth rewriting for MIGs.

   MIG-specific delay optimization (after Amarù's MIG algebraic rules)
   exploits the majority axioms the generic algorithms do not know about:

   - associativity with a shared operand,
       <x u <y u z>> = <<x u y> u z>
     hoists a critical signal one level up at no size cost;
   - distributivity (left-to-right),
       <x y <u v z>> = <<x y u> <x y v> z>
     hoists a critical signal at the cost of one extra gate.

   The pass walks the critical paths from the outputs and applies the
   cheapest rule that reduces the arrival time of the node, within a size
   budget for distributivity.  This is the engine behind the large depth
   reductions MIGs achieve on carry-chain circuits (paper §1: "impressive
   delay reductions for arithmetic-intensive benchmark circuits").

   Only the axiom matching, the level estimates and the size budget are
   specialized: the pass decides before it builds, so each rewrite is one
   [Cost.commit] (build, cycle guard, substitute), the replacement step
   of every generic pass without its pricing. *)

open Network

module T = Topo.Make (Mig)
module Dp = Depth.Make (Mig)
module Co = Cost.Make (Mig)

type stats = {
  mutable associativity : int;
  mutable distributivity : int;
}

(* One sweep over the critical nodes; returns the number of rewrites. *)
let sweep (t : Mig.t) ~level_of ~size_budget stats =
  let rewrites = ref 0 in
  let budget = ref size_budget in
  let signal_level s = level_of (Mig.node_of_signal s) in
  let try_node n =
    if Mig.is_gate t n && (not (Mig.is_dead t n)) && Mig.ref_count t n > 0 then begin
      let fanins = Mig.fanin t n in
      (* the critical child must be a non-complemented majority gate *)
      let crit = ref (-1) in
      Array.iteri
        (fun i s ->
          let c = Mig.node_of_signal s in
          if
            (not (Mig.is_complemented s))
            && Mig.is_gate t c
            && (!crit < 0 || signal_level s > signal_level fanins.(!crit))
          then crit := i)
        fanins;
      if !crit >= 0 then begin
        let z_sig = fanins.(!crit) in
        let z = Mig.node_of_signal z_sig in
        let z_level = level_of z in
        let others = Array.of_list
            (List.filteri (fun i _ -> i <> !crit) (Array.to_list fanins))
        in
        let other_level =
          Array.fold_left (fun acc s -> max acc (signal_level s)) 0 others
        in
        (* only profitable when the critical child dominates the node *)
        if z_level > other_level then begin
          let gf = Mig.fanin t z in
          (* deepest grandchild g and the remaining two *)
          let gi = ref 0 in
          Array.iteri
            (fun i s -> if signal_level s > signal_level gf.(!gi) then gi := i)
            gf;
          let g = gf.(!gi) in
          let rest =
            Array.of_list (List.filteri (fun i _ -> i <> !gi) (Array.to_list gf))
          in
          let g_level = signal_level g in
          (* the nodes a rewritten cone stops at *)
          let leaves = Array.map Mig.node_of_signal (Array.append others gf) in
          (* estimated new arrival if g is hoisted next to the root *)
          let hoisted_ok lower_parts =
            let inner = List.fold_left max 0 lower_parts + 1 in
            max inner g_level + 1 < z_level + 1
          in
          (* rule 1: associativity — needs an operand shared between n and z *)
          let shared =
            Array.to_list others
            |> List.find_opt (fun s -> Array.exists (fun f -> f = s) gf)
          in
          let applied =
            match shared with
            | Some u when Array.length rest = 2 ->
              (* n = <x u <y u g>> -> <<x u y> u g>, choosing y as the rest
                 operand that is not u *)
              let x =
                match Array.to_list others |> List.filter (fun s -> s <> u) with
                | [ x ] -> Some x
                | _ -> None
              in
              let y =
                match Array.to_list rest |> List.filter (fun s -> s <> u) with
                | y :: _ -> Some y
                | [] -> None
              in
              (match (x, y) with
              | Some x, Some y
                when g <> u
                     && hoisted_ok [ signal_level x; signal_level u; signal_level y ]
                ->
                let applied =
                  Co.commit t ~leaves n (fun () ->
                      Some (Mig.create_maj t (Mig.create_maj t x u y) u g))
                in
                if applied then
                  stats.associativity <- stats.associativity + 1;
                applied
              | _ -> false)
            | Some _ | None -> false
          in
          (* rule 2: distributivity — costs one gate, bounded by the budget *)
          if (not applied) && !budget > 0 && Array.length others = 2
             && Array.length rest = 2
          then begin
            let x = others.(0) and y = others.(1) in
            let u = rest.(0) and v = rest.(1) in
            if
              hoisted_ok
                [ signal_level x; signal_level y;
                  max (signal_level u) (signal_level v) ]
            then begin
              let before = Mig.num_gates t in
              if
                Co.commit t ~leaves n (fun () ->
                    let a = Mig.create_maj t x y u in
                    let b = Mig.create_maj t x y v in
                    Some (Mig.create_maj t a b g))
              then begin
                budget := !budget - max 0 (Mig.num_gates t - before);
                stats.distributivity <- stats.distributivity + 1;
                incr rewrites
              end
            end
          end
          else if applied then incr rewrites
        end
      end
    end
  in
  List.iter try_node (List.rev (T.order t));
  !rewrites

(* Depth-oriented rewriting: repeats critical-path sweeps, at most 8,
   until the depth stops improving.  [size_budget] bounds the total
   gate-count increase distributivity may cause (associativity is free). *)
let run (t : Mig.t) ?(size_budget = max_int) () : stats =
  let stats = { associativity = 0; distributivity = 0 } in
  let rec go i best_depth =
    if i < 8 then begin
      let r = sweep t ~level_of:(Dp.overlay t) ~size_budget stats in
      let d = Dp.depth t in
      if r > 0 && d < best_depth then go (i + 1) d
    end
  in
  go 0 (Dp.depth t);
  stats
