(* Layer-4 performance tweak (paper §2.1): AIG-specialized cut rewriting.

   The generic [Rewrite] functor represents cut functions as heap-allocated
   truth tables and composes them through the generic simulation machinery.
   For 2-input AND gates and 4-input cuts, the whole computation fits in a
   16-bit integer: this module reimplements cut enumeration with packed
   int truth tables and direct AND-node handling.  Comparing this against
   [Rewrite.Make (Aig)] is the experiment behind Table 1.

   Only the cut enumeration is specialized.  Candidates come from the
   generic [Rewrite.chain_builder], are priced by [Cost.price] under the
   area objective and committed by [Cost.replace], so the replacement
   step is the one every generic pass takes.  It tries only the database
   chain (no ISOP-factored candidate); that difference, not genericity,
   explains part of Table 1's QoR gap. *)

open Network

module T = Topo.Make (Aig)
module M = Mffc.Make (Aig)
module R = Rewrite.Make (Aig)
module Co = R.Co

type cut = {
  leaves : int array;  (* at most 4, ascending *)
  tt : int;            (* 16-bit truth table over the leaves *)
}

let full = 0xFFFF

(* variable projections over 4 inputs, 16-bit *)
let proj = [| 0xAAAA; 0xCCCC; 0xF0F0; 0xFF00 |]

(* Re-express [tt] over [child] leaves in the [merged] leaf space. *)
let expand tt (child : int array) (merged : int array) =
  let n_child = Array.length child in
  (* position of each child leaf within merged *)
  let pos = Array.map (fun l ->
      let rec find i = if merged.(i) = l then i else find (i + 1) in
      find 0) child
  in
  let out = ref 0 in
  for m = 0 to (1 lsl Array.length merged) - 1 do
    let child_m = ref 0 in
    for i = 0 to n_child - 1 do
      if (m lsr pos.(i)) land 1 = 1 then child_m := !child_m lor (1 lsl i)
    done;
    if (tt lsr !child_m) land 1 = 1 then out := !out lor (1 lsl m)
  done;
  (* normalize to the full 16-bit space *)
  let rec widen v width = if width >= 16 then v else widen (v lor (v lsl width)) (2 * width) in
  widen !out (1 lsl Array.length merged)

let merge_leaves (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make 4 0 in
  let rec go i j m =
    if i < la && j < lb then
      if m >= 4 then None
      else if a.(i) = b.(j) then (out.(m) <- a.(i); go (i + 1) (j + 1) (m + 1))
      else if a.(i) < b.(j) then (out.(m) <- a.(i); go (i + 1) j (m + 1))
      else (out.(m) <- b.(j); go i (j + 1) (m + 1))
    else begin
      let rest, ri, rl = if i < la then (a, i, la) else (b, j, lb) in
      if m + (rl - ri) > 4 then None
      else begin
        Array.blit rest ri out m (rl - ri);
        Some (Array.sub out 0 (m + (rl - ri)))
      end
    end
  in
  go 0 0 0

let subset (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let rec go i j =
    if i >= la then true
    else if j >= lb then false
    else if a.(i) = b.(j) then go (i + 1) (j + 1)
    else if a.(i) > b.(j) then go i (j + 1)
    else false
  in
  go 0 0

(* Specialized 4-cut enumeration for AIGs. *)
let enumerate (t : Aig.t) ~cut_limit : cut list array =
  let cuts = Array.make (Aig.size t) [] in
  cuts.(0) <- [ { leaves = [||]; tt = 0 } ];
  Aig.foreach_pi t (fun n -> cuts.(n) <- [ { leaves = [| n |]; tt = 0xAAAA } ]);
  List.iter
    (fun n ->
      let f = Aig.fanin t n in
      let c0 = Aig.node_of_signal f.(0) and c1 = Aig.node_of_signal f.(1) in
      let i0 = Aig.is_complemented f.(0) and i1 = Aig.is_complemented f.(1) in
      let acc = ref [] in
      List.iter
        (fun (a : cut) ->
          List.iter
            (fun (b : cut) ->
              match merge_leaves a.leaves b.leaves with
              | None -> ()
              | Some merged ->
                if not (List.exists (fun c -> subset c.leaves merged) !acc)
                then begin
                  let ta = expand a.tt a.leaves merged in
                  let tb = expand b.tt b.leaves merged in
                  let ta = if i0 then full lxor ta else ta in
                  let tb = if i1 then full lxor tb else tb in
                  acc := { leaves = merged; tt = ta land tb } :: !acc
                end)
            cuts.(c1))
        cuts.(c0);
      let sorted =
        List.sort
          (fun a b -> Int.compare (Array.length a.leaves) (Array.length b.leaves))
          (List.rev !acc)
      in
      let rec take k = function
        | [] -> []
        | x :: r -> if k = 0 then [] else x :: take (k - 1) r
      in
      cuts.(n) <- take (cut_limit - 1) sorted @ [ { leaves = [| n |]; tt = 0xAAAA } ])
    (T.order t);
  cuts

(* Expand a k-leaf int truth table (k <= 4) into a [Kitty.Tt.t] over k
   variables for the database boundary. *)
let tt_of_int k v =
  let tt = Kitty.Tt.create k in
  for m = 0 to (1 lsl k) - 1 do
    if (v lsr m) land 1 = 1 then Kitty.Tt.set_bit tt m
  done;
  tt

(* The DAG-aware rewriting loop of the generic functor, driven by the
   specialized cut data. *)
let run (net : Aig.t) ~(db : Exact.Database.t) ?(allow_zero_gain = false) ()
    : int =
  let cuts = enumerate net ~cut_limit:8 in
  let nodes = T.order net in
  let total_gain = ref 0 in
  List.iter
    (fun n ->
      if Aig.is_gate net n && (not (Aig.is_dead net n)) && Aig.ref_count net n > 0
      then begin
        let mffc_size = M.size net n in
        let best = ref None in
        List.iter
          (fun (cut : cut) ->
            if R.cut_usable net cut.leaves then begin
              let k = Array.length cut.leaves in
              let f = tt_of_int k (cut.tt land ((1 lsl (1 lsl k)) - 1)) in
              let leaf_sigs = Array.map Aig.signal_of_node cut.leaves in
              match R.chain_builder net db f leaf_sigs ~mffc_size with
              | None -> ()
              | Some build -> (
                match Co.price Cost.Spec.Area net ~leaves:cut.leaves n build with
                | None -> ()
                | Some gain ->
                  if R.improves ~zero_gain:allow_zero_gain !best gain then
                    best := Some (gain, (cut.leaves, build)))
            end)
          cuts.(n);
        match !best with
        | None -> ()
        | Some (_, (leaves, build)) -> (
          match Co.replace ~zero_gain:true Cost.Spec.Area net ~leaves n build with
          | Co.Replaced gain -> total_gain := !total_gain + gain
          | Co.No_candidate | Co.Cycle | Co.Rejected _ -> ())
      end)
    nodes;
  !total_gain
