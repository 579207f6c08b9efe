(* Reference oracle for resubstitution windowing.  [Algo.Reconv] and
   [Algo.Window] build each window on traversal marks, the per-node
   [value] field and flat arrays; the reference below builds the same
   windows the direct way, on hash tables and lists.  Both must agree on
   the cut leaves and their order, the divisors and their order, and
   every simulated table. *)

open Kitty
open Network

module Ref (N : Intf.COUNTED) = struct
  module S = Algo.Simulate.Make (N)

  (* Leaves in joining order; the expanded leaf is the first of minimum
     cost in the newest-first list. *)
  let reconv (t : N.t) ~max_leaves root =
    let seen = Hashtbl.create 16 in
    Hashtbl.replace seen root ();
    let leaves = ref [] in
    let add_fanins g =
      Array.iter
        (fun s ->
          let c = N.node_of_signal s in
          if not (Hashtbl.mem seen c) then begin
            Hashtbl.replace seen c ();
            if not (N.is_constant t c) then leaves := c :: !leaves
          end)
        (N.fanin t g)
    in
    let cost l =
      Array.fold_left
        (fun k s -> if Hashtbl.mem seen (N.node_of_signal s) then k else k + 1)
        (-1) (N.fanin t l)
    in
    add_fanins root;
    let rec expand () =
      let best =
        List.fold_left
          (fun best l ->
            if not (N.is_gate t l) then best
            else
              let c = cost l in
              match best with
              | Some (_, bc) when bc <= c -> best
              | Some _ | None -> Some (l, c))
          None !leaves
      in
      match best with
      | Some (l, c) when List.length !leaves + c <= max_leaves ->
        leaves := List.filter (fun x -> x <> l) !leaves;
        add_fanins l;
        expand ()
      | Some _ | None -> ()
    in
    expand ();
    List.rev !leaves

  let divisors (t : N.t) ~root ~leaves ~cone ~mffc ~max =
    let in_mffc = Hashtbl.create 16 in
    List.iter (fun n -> Hashtbl.replace in_mffc n ()) mffc;
    let base =
      leaves @ List.filter (fun n -> not (Hashtbl.mem in_mffc n)) cone
    in
    let room = max - List.length base in
    if room <= 0 then List.filteri (fun i _ -> i < max) base
    else begin
      let in_window = Hashtbl.create 64 in
      List.iter
        (fun n -> Hashtbl.replace in_window n ())
        ((root :: leaves) @ cone);
      let side = ref [] and found = ref 0 in
      let consider d =
        if
          !found < room
          && (not (Hashtbl.mem in_window d))
          && N.is_gate t d
          && (not (N.is_dead t d))
          && Array.for_all
               (fun s ->
                 let c = N.node_of_signal s in
                 c <> root && Hashtbl.mem in_window c
                 && not (Hashtbl.mem in_mffc c))
               (N.fanin t d)
        then begin
          Hashtbl.replace in_window d ();
          side := d :: !side;
          incr found
        end
      in
      List.iter
        (fun n -> if !found < room then List.iter consider (N.fanout t n))
        base;
      base @ List.rev !side
    end

  (* Tables of the constant, the leaves, the cone and the divisors. *)
  let simulate (t : N.t) ~leaves ~cone ~divisors =
    let nv = List.length leaves in
    let values = Hashtbl.create 64 in
    Hashtbl.replace values 0 (Tt.const0 nv);
    List.iteri (fun i l -> Hashtbl.replace values l (Tt.nth_var nv i)) leaves;
    let rec value n =
      match Hashtbl.find_opt values n with
      | Some v -> v
      | None ->
        let v = S.gate_value t n value in
        Hashtbl.replace values n v;
        v
    in
    List.iter (fun n -> ignore (value n)) cone;
    List.iter (fun n -> ignore (value n)) divisors;
    values
end

(* Every live gate of [net] with cut size [k]: the windowing under test
   agrees with the reference.  Returns the first disagreement. *)
module Agree (N : Intf.COUNTED) = struct
  module R = Algo.Reconv.Make (N)
  module W = Algo.Window.Make (N)
  module M = Algo.Mffc.Make (N)
  module Rf = Ref (N)

  let check (net : N.t) ~k ~max : string option =
    let bad = ref None in
    let fail n what =
      if !bad = None then bad := Some (Printf.sprintf "node %d: %s" n what)
    in
    N.foreach_gate net (fun n ->
        if N.ref_count net n > 0 && not (N.is_dead net n) then begin
          let ref_leaves = Rf.reconv net ~max_leaves:k n in
          let leaves = R.compute net ~max_leaves:k n in
          if Array.to_list leaves <> ref_leaves then fail n "leaves differ"
          else if leaves <> [||] then begin
            let w = W.of_cut net n leaves in
            let mffc = M.collect net n in
            let ref_divs =
              Rf.divisors net ~root:n ~leaves:ref_leaves ~cone:w.W.cone ~mffc
                ~max
            in
            let divs = W.divisors net w ~mffc ~max in
            if Array.to_list divs <> ref_divs then fail n "divisors differ"
            else begin
              let ref_values =
                Rf.simulate net ~leaves:ref_leaves ~cone:w.W.cone
                  ~divisors:ref_divs
              in
              let tb = W.simulate net w in
              W.simulate_divisors net tb divs;
              Hashtbl.iter
                (fun m v ->
                  match W.find net tb m with
                  | tt -> if not (Tt.equal tt v) then fail n "table differs"
                  | exception Not_found -> fail n "table missing")
                ref_values
            end
          end
        end);
    !bad
end

module Agree_aig = Agree (Aig)
module Agree_mig = Agree (Mig)
module G_aig = Gen.Make (Aig)
module G_mig = Gen.Make (Mig)

let report = function
  | None -> true
  | Some msg -> QCheck.Test.fail_report msg

(* random AIGs and MIGs, cut sizes 4-12, resub's divisor cap and none *)
let prop_agree =
  QCheck.Test.make ~name:"windows agree with the hash-table reference"
    ~count:30
    (QCheck.pair (Gen.arb_params ()) (QCheck.int_range 4 12))
    (fun ((seed, num_gates), k) ->
      let aig = G_aig.generate ~seed ~num_pis:6 ~num_gates ~num_pos:4 () in
      let mig =
        G_mig.generate ~use_maj:true ~seed ~num_pis:6 ~num_gates ~num_pos:4 ()
      in
      report (Agree_aig.check aig ~k ~max:24)
      && report (Agree_aig.check aig ~k ~max:max_int)
      && report (Agree_mig.check mig ~k ~max:24)
      && report (Agree_mig.check mig ~k ~max:max_int))

(* A window whose MFFC reaches below its leaves: root = l & (y | z)
   with l = e & p, e = d & z and d = y & z.  With three leaves the cut
   is {l, y, z}; l, e and d are in the root's MFFC, e and d below the
   leaf l.  The leaf l stays a divisor.  d becomes a side divisor, since
   its fanins y and z are in the window and outside the MFFC; e does
   not, since its fanin d is in the MFFC although it joined the window. *)
let test_mffc_below_leaves () =
  let module R = Algo.Reconv.Make (Aig) in
  let module W = Algo.Window.Make (Aig) in
  let module M = Algo.Mffc.Make (Aig) in
  let t = Aig.create () in
  let y = Aig.create_pi t and z = Aig.create_pi t and p = Aig.create_pi t in
  let d = Aig.create_and t y z in
  let e = Aig.create_and t d z in
  let l = Aig.create_and t e p in
  let m = Aig.create_or t y z in
  let root = Aig.create_and t l m in
  Aig.create_po t root;
  let node = Aig.node_of_signal in
  let r = node root in
  let leaves = R.compute t ~max_leaves:3 r in
  Alcotest.(check (list int)) "leaves" [ node l; node y; node z ]
    (Array.to_list leaves);
  let mffc = M.collect t r in
  Alcotest.(check bool) "d and e in the MFFC" true
    (List.mem (node d) mffc && List.mem (node e) mffc);
  let w = W.of_cut t r leaves in
  Alcotest.(check bool) "d below the window" false (List.mem (node d) w.W.cone);
  let divs = W.divisors t w ~mffc ~max:24 in
  Alcotest.(check (list int)) "divisors" [ node l; node y; node z; node d ]
    (Array.to_list divs);
  Alcotest.(check (option string)) "agrees with the reference" None
    (Agree_aig.check t ~k:3 ~max:24)

let suite =
  [
    Seed.to_alcotest prop_agree;
    Alcotest.test_case "mffc below the leaves" `Quick test_mffc_below_leaves;
  ]
