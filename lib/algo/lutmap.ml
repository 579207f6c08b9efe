(* k-LUT technology mapping over priority cuts: a depth-oriented pass
   followed by area-flow recovery passes under depth slack, then cover
   derivation into a [Network.Klut] network.  This is the generic
   counterpart of conventional cut-based FPGA mappers and produces the
   LUT counts reported in the paper's Tables 1 and 2. *)

module Make (N : Network.Intf.COUNTED) = struct
  module C = Cuts.Make (N)
  module T = Network.Topo.Make (N)

  type mapping = {
    klut : Network.Klut.t;
    lut_count : int;
    depth : int;
  }

  let is_trivial (cut : C.cut) n =
    Array.length cut.C.leaves = 1 && cut.C.leaves.(0) = n

  (* Choose, for every gate, a best cut in two modes:
     - depth mode: minimize (arrival, area flow),
     - area mode: minimize (area flow, arrival) subject to required time. *)
  let map (net : N.t) ?(trace = Obs.Trace.null) ?(cost = Cost.Spec.Area)
      ?(k = 6) ?(area_iterations = 2) () : mapping =
    (* per-cut instantiation price under the chosen objective: edge count
       charges a cut its leaf count, user weights charge the LUT weight,
       everything else prices each LUT at 1 (the seed behavior) *)
    let cut_price (cut : C.cut) =
      match cost with
      | Cost.Spec.Edges -> float_of_int (Array.length cut.C.leaves)
      | Cost.Spec.Weights w -> float_of_int (max 1 w.Cost.Spec.w_lut)
      | Cost.Spec.Area | Cost.Spec.Depth | Cost.Spec.Activity
      | Cost.Spec.Lut _ ->
        1.0
    in
    (* wide cuts make small covers: prefer large cuts, 12 per node *)
    let cuts = C.enumerate net ~k ~cut_limit:12 ~prefer:`Large ~trace () in
    let order = T.order net in
    let size = N.size net in
    let arrival = Array.make size 0.0 in
    let area_flow = Array.make size 0.0 in
    let best_cut : C.cut option array = Array.make size None in
    let refs_estimate n = float_of_int (max 1 (N.ref_count net n)) in
    let cut_arrival cut =
      Array.fold_left (fun acc l -> max acc arrival.(l)) 0.0 cut.C.leaves +. 1.0
    in
    let cut_area_flow cut =
      Array.fold_left
        (fun acc l -> acc +. area_flow.(l))
        (cut_price cut) cut.C.leaves
    in
    let select_pass ~area_mode required =
      List.iter
        (fun n ->
          let candidates =
            List.filter (fun c -> not (is_trivial c n)) (C.cuts_of cuts n)
          in
          let best = ref None in
          List.iter
            (fun cut ->
              let a = cut_arrival cut and f = cut_area_flow cut in
              let feasible =
                (not area_mode) || a <= required.(n) +. 0.5
              in
              if feasible then begin
                let key = if area_mode then (f, a) else (a, f) in
                match !best with
                | Some (bk, _) when bk <= key -> ()
                | Some _ | None -> best := Some (key, cut)
              end)
            candidates;
          match !best with
          | None ->
            (* fall back to the smallest cut regardless of required time *)
            (match candidates with
            | cut :: _ ->
              best_cut.(n) <- Some cut;
              arrival.(n) <- cut_arrival cut;
              area_flow.(n) <- cut_area_flow cut /. refs_estimate n
            | [] -> assert false)
          | Some (_, cut) ->
            best_cut.(n) <- Some cut;
            arrival.(n) <- cut_arrival cut;
            area_flow.(n) <- cut_area_flow cut /. refs_estimate n)
        order
    in
    (* pass 1: depth *)
    let required = Array.make size infinity in
    select_pass ~area_mode:false required;
    let network_depth () =
      let d = ref 0.0 in
      N.foreach_po net (fun s -> d := max !d arrival.(N.node_of_signal s));
      !d
    in
    (* compute required times over the current cover *)
    let compute_required () =
      let d = network_depth () in
      Array.fill required 0 size infinity;
      N.foreach_po net (fun s ->
          let n = N.node_of_signal s in
          if required.(n) > d then required.(n) <- d);
      List.iter
        (fun n ->
          match best_cut.(n) with
          | None -> ()
          | Some cut ->
            Array.iter
              (fun l ->
                if required.(l) > required.(n) -. 1.0 then
                  required.(l) <- required.(n) -. 1.0)
              cut.C.leaves)
        (List.rev order)
    in
    (* number of LUTs the current cut selection would instantiate *)
    let cover_size () =
      let seen = Hashtbl.create 64 in
      let rec visit n =
        if N.is_gate net n && not (Hashtbl.mem seen n) then begin
          Hashtbl.replace seen n ();
          match best_cut.(n) with
          | Some cut -> Array.iter visit cut.C.leaves
          | None -> ()
        end
      in
      N.foreach_po net (fun s -> visit (N.node_of_signal s));
      Hashtbl.length seen
    in
    (* area-recovery passes can churn; keep the best cover seen *)
    let best_cover = ref (Array.copy best_cut) in
    let best_cover_size = ref (cover_size ()) in
    for _ = 1 to area_iterations do
      compute_required ();
      select_pass ~area_mode:true required;
      let size = cover_size () in
      if size < !best_cover_size then begin
        best_cover_size := size;
        best_cover := Array.copy best_cut
      end
    done;
    let best_cut = !best_cover in
    (* derive the cover from the outputs *)
    let module K = Network.Klut in
    let klut = K.create ~initial_capacity:(N.size net) () in
    let mapped = Array.make size (-1) in
    mapped.(0) <- K.constant false;
    N.foreach_pi net (fun n -> mapped.(n) <- K.create_pi klut);
    let rec realize n =
      if mapped.(n) >= 0 then mapped.(n)
      else begin
        let cut =
          match best_cut.(n) with Some c -> c | None -> assert false
        in
        let fanins = Array.map (fun l -> realize l) cut.C.leaves in
        let s = K.create_lut klut fanins cut.C.tt in
        mapped.(n) <- s;
        s
      end
    in
    N.foreach_po net (fun s ->
        let m = realize (N.node_of_signal s) in
        K.create_po klut (K.complement_if (N.is_complemented s) m));
    let module Dk = Depth.Make (Network.Klut) in
    let mapping = { klut; lut_count = K.num_gates klut; depth = Dk.depth klut } in
    Obs.Trace.report trace ~algo:"lutmap"
      [
        ("k", k);
        ("luts", mapping.lut_count);
        ("lut_depth", mapping.depth);
      ];
    mapping
end
