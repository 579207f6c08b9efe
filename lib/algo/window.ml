(* Windows: the cone of a (reconvergence-driven) cut, plus exhaustive
   simulation over the cut leaves and divisor collection for
   resubstitution (paper §2.3.4).

   A window works on the network's scratch state, the way ABC's and
   mockturtle's windowing do: membership is a traversal mark and a
   node's table is found through its [value] field, so no per-window
   hash table is built.  While one window is in use it owns [value] and
   the traversal ids it takes; a window's tables are valid until the next
   traversal id is taken on the network.  Tables are shared (every
   window of one width gets the same leaf projections), so no consumer
   may mutate one. *)

open Kitty

(* Projection tables per width, built on first use and shared from then
   on.  Published atomically: portfolio domains may race to build one. *)
let projections = Array.init (Tt.max_vars + 1) (fun _ -> Atomic.make [||])

let projections_of nv =
  (* too wide for a table: [Tt.nth_var] raises its own error *)
  if nv > Tt.max_vars then Array.init nv (Tt.nth_var nv)
  else begin
    let p = Atomic.get projections.(nv) in
    if Array.length p = nv then p
    else begin
      let p = Array.init nv (Tt.nth_var nv) in
      Atomic.set projections.(nv) p;
      p
    end
  end

module Make (N : Network.Intf.COUNTED) = struct
  module S = Simulate.Make (N)
  module T = Network.Topo.Make (N)

  type t = {
    root : N.node;
    leaves : N.node array;
    cone : N.node list;  (* gates strictly inside, topological, root last *)
  }

  (* The simulated tables of a window: node [n] has the table
     [slots.(N.value net n)] exactly when it is marked [id]. *)
  type tables = { id : int; mutable slots : Tt.t array; mutable count : int }

  (* Gates between the leaves and the root (root included, leaves not). *)
  let of_cut (net : N.t) (root : N.node) (leaves : N.node array) : t =
    { root; leaves; cone = T.cone net ~leaves root }

  (* The table of window node [n]; [Not_found] if it was not simulated. *)
  let find (net : N.t) (tb : tables) (n : N.node) : Tt.t =
    if N.visited net n = tb.id then tb.slots.(N.value net n)
    else raise Not_found

  let store (net : N.t) tb n tt =
    if tb.count = Array.length tb.slots then begin
      let bigger = Array.make (2 * tb.count) tt in
      Array.blit tb.slots 0 bigger 0 tb.count;
      tb.slots <- bigger
    end;
    N.set_visited net n tb.id;
    N.set_value net n tb.count;
    tb.slots.(tb.count) <- tt;
    tb.count <- tb.count + 1

  (* Truth tables of all window nodes over the leaf variables. *)
  let simulate (net : N.t) (w : t) : tables =
    let nv = Array.length w.leaves in
    let const0 = Tt.const0 nv in
    let tb =
      {
        id = N.new_traversal_id net;
        slots = Array.make (1 + nv + List.length w.cone) const0;
        count = 0;
      }
    in
    store net tb 0 const0;
    let proj = projections_of nv in
    Array.iteri (fun i l -> store net tb l proj.(i)) w.leaves;
    let value_of c = find net tb c in
    List.iter (fun n -> store net tb n (S.gate_value net n value_of)) w.cone;
    tb

  (* Divisor candidates for resubstituting the root: every window node
     except the root and the gates of the root's MFFC [mffc] (paper
     §2.3.4), then side nodes whose fanins all lie inside the window,
     in discovery order.  Collection stops at [max] nodes.

     Three fresh marks keep window and MFFC membership independent, since
     the MFFC can extend below the leaves: [win] is window only,
     [mffc_only] MFFC only, [both] both. *)
  let divisors (net : N.t) (w : t) ~(mffc : N.node list) ~(max : int) :
      N.node array =
    let win = N.new_traversal_id net in
    let mffc_only = N.new_traversal_id net in
    let both = N.new_traversal_id net in
    List.iter (fun n -> N.set_visited net n mffc_only) mffc;
    let enter n =
      let v = N.visited net n in
      N.set_visited net n (if v = mffc_only || v = both then both else win)
    in
    Array.iter enter w.leaves;
    enter w.root;
    List.iter enter w.cone;
    let out = ref (Array.make (Array.length w.leaves + 16) 0) in
    let n_out = ref 0 in
    let push n =
      if !n_out = Array.length !out then begin
        let bigger = Array.make (2 * !n_out) 0 in
        Array.blit !out 0 bigger 0 !n_out;
        out := bigger
      end;
      !out.(!n_out) <- n;
      incr n_out
    in
    Array.iter push w.leaves;
    List.iter (fun n -> if N.visited net n <> both then push n) w.cone;
    let n_base = !n_out in
    let room = max - n_base in
    if room <= 0 then Array.sub !out 0 (Int.max 0 max)
    else begin
      (* side divisors: fanouts of window nodes, fully supported by the
         window and independent of the root *)
      let found = ref 0 in
      let rec supported fanin i =
        i = Array.length fanin
        ||
        let c = N.node_of_signal fanin.(i) in
        c <> w.root && N.visited net c = win && supported fanin (i + 1)
      in
      let consider d =
        if !found < room then begin
          let v = N.visited net d in
          if
            v <> win && v <> both && N.is_gate net d
            && (not (N.is_dead net d))
            && supported (N.fanin net d) 0
          then begin
            enter d;
            push d;
            incr found
          end
        end
      in
      let i = ref 0 in
      while !found < room && !i < n_base do
        List.iter consider (N.fanout net !out.(!i));
        incr i
      done;
      Array.sub !out 0 !n_out
    end

  (* Extend the simulation to side divisors that are not in the cone. *)
  let simulate_divisors (net : N.t) (tb : tables) (divs : N.node array) : unit =
    let rec value n =
      if N.visited net n = tb.id then tb.slots.(N.value net n)
      else begin
        let v = S.gate_value net n value in
        store net tb n v;
        v
      end
    in
    Array.iter (fun d -> ignore (value d)) divs
end
