(* Windows: the cone of a (reconvergence-driven) cut, plus exhaustive
   simulation over the cut leaves and divisor collection for
   resubstitution (paper §2.3.4). *)

open Kitty

module Make (N : Network.Intf.COUNTED) = struct
  module S = Simulate.Make (N)
  module T = Network.Topo.Make (N)

  type t = {
    root : N.node;
    leaves : N.node array;
    cone : N.node list;  (* gates strictly inside, topological, root last *)
  }

  (* Gates between the leaves and the root (root included, leaves not). *)
  let of_cut (net : N.t) (root : N.node) (leaves : N.node list) : t =
    let leaves = Array.of_list leaves in
    { root; leaves; cone = T.cone net ~leaves root }

  (* Truth tables of all window nodes over the leaf variables. *)
  let simulate (net : N.t) (w : t) : (N.node, Tt.t) Hashtbl.t =
    let nv = Array.length w.leaves in
    let values = Hashtbl.create 64 in
    Hashtbl.replace values 0 (Tt.const0 nv);
    Array.iteri (fun i l -> Hashtbl.replace values l (Tt.nth_var nv i)) w.leaves;
    List.iter
      (fun n ->
        Hashtbl.replace values n
          (S.gate_value net n (fun c -> Hashtbl.find values c)))
      w.cone;
    values

  (* Divisor candidates for resubstituting the root: every window node
     except the root and the gates of the root's MFFC [mffc] (paper
     §2.3.4), then side nodes whose fanins all lie inside the window,
     in discovery order.  Collection stops at [max] nodes. *)
  let divisors (net : N.t) (w : t) ~(mffc : N.node list) ~(max : int) :
      N.node list =
    let in_mffc = Hashtbl.create 16 in
    List.iter (fun n -> Hashtbl.replace in_mffc n ()) mffc;
    let base =
      Array.to_list w.leaves
      @ List.filter (fun n -> not (Hashtbl.mem in_mffc n)) w.cone
    in
    let room = max - List.length base in
    if room <= 0 then List.filteri (fun i _ -> i < max) base
    else begin
      (* side divisors: fanouts of window nodes, fully supported by the
         window and independent of the root *)
      let in_window = Hashtbl.create 64 in
      List.iter (fun n -> Hashtbl.replace in_window n ()) base;
      Hashtbl.replace in_window w.root ();
      List.iter (fun n -> Hashtbl.replace in_window n ()) w.cone;
      let side = ref [] and found = ref 0 in
      let consider d =
        if
          !found < room
          && (not (Hashtbl.mem in_window d))
          && N.is_gate net d
          && (not (N.is_dead net d))
          && Array.for_all
               (fun s ->
                 let c = N.node_of_signal s in
                 c <> w.root && Hashtbl.mem in_window c
                 && not (Hashtbl.mem in_mffc c))
               (N.fanin net d)
        then begin
          Hashtbl.replace in_window d ();
          side := d :: !side;
          incr found
        end
      in
      let rec scan = function
        | n :: rest when !found < room ->
          List.iter consider (N.fanout net n);
          scan rest
        | _ -> ()
      in
      scan base;
      base @ List.rev !side
    end

  (* Extend the simulation to side divisors that are not in the cone. *)
  let simulate_divisors (net : N.t) (_w : t) (values : (N.node, Tt.t) Hashtbl.t)
      (divs : N.node list) : unit =
    let rec value n =
      match Hashtbl.find_opt values n with
      | Some v -> v
      | None ->
        let v = S.gate_value net n value in
        Hashtbl.replace values n v;
        v
    in
    List.iter (fun d -> ignore (value d)) divs
end
