(* DAG-aware cut rewriting (paper Algorithm 3, after Mishchenko's
   DAG-aware AIG rewriting): for every gate, every priority cut's function
   is replaced by its size-optimal implementation from the exact-synthesis
   database whenever the replacement frees more nodes than it adds.  The
   gain computation is DAG-aware: candidate structures are built physically
   (structural hashing exposes sharing with the existing graph, including
   nodes of the cone about to be freed), measured, and undone when they do
   not pay off. *)

module Make (N : Network.Intf.NETWORK) = struct
  module C = Cuts.Make (N)
  module T = Network.Topo.Make (N)
  module D = Exact.Decode.Make (N)
  module B = Network.Build.Make (N)
  module Co = Cost.Make (N)
  module M = Mffc.Make (N)

  type stats = {
    mutable candidates : int;
    mutable substitutions : int;
    mutable gain : int;
  }

  (* Candidates whose chain is clearly larger than the node's MFFC are
     pruned before anything is built ([sharing_margin] allows for
     structural-hashing reuse). *)
  let sharing_margin = 3

  (* Candidate builders for a cut: the database chain (size-optimal in
     isolation) and, for larger cones, an ISOP-factored structure — which
     sometimes shares better with the existing graph even though it has
     more gates.  Both are gain-checked; the better one wins. *)
  let candidate_builders net db cut leaf_sigs ~mffc_size =
    let lookup = Exact.Database.lookup db cut.C.tt in
    let chain_candidate =
      match fst lookup with
      | Exact.Synth.Chain c when Exact.Chain.size c > mffc_size + sharing_margin
        -> []
      | Exact.Synth.Failed -> []
      | Exact.Synth.Chain _ | Exact.Synth.Const _ | Exact.Synth.Projection _ ->
        [ (fun () -> D.of_lookup net lookup leaf_sigs) ]
    in
    let factored_candidate =
      if mffc_size >= 3 then
        [ (fun () -> Some (B.of_tt net leaf_sigs cut.C.tt)) ]
      else []
    in
    (* factored first: on equal measured gain the factored structure tends
       to share better with neighbouring cones, so it wins ties *)
    factored_candidate @ chain_candidate

  let cut_usable net n (cut : C.cut) =
    let leaf_ok l = (not (N.is_dead net l)) && not (N.is_constant net l) in
    ignore n;
    Array.length cut.C.leaves >= 2 && Array.for_all leaf_ok cut.C.leaves

  (* One rewriting pass; returns the accumulated gain (in units of the
     chosen cost objective). *)
  let run (net : N.t) ~(db : Exact.Database.t) ?(trace = Obs.Trace.null)
      ?(cost = Cost.Spec.Area) ?(allow_zero_gain = false) () : int =
    let stats = { candidates = 0; substitutions = 0; gain = 0 } in
    (* 4-leaf cuts, the width of the shipped NPN tables; 8 per node *)
    let cuts = C.enumerate net ~k:4 ~cut_limit:8 ~trace () in
    let nodes = T.order net in
    List.iter
      (fun n ->
        if N.is_gate net n && (not (N.is_dead net n)) && N.ref_count net n > 0
        then begin
          (* structural MFFC size, used only to prune candidate builders;
             always counted in gates regardless of the cost objective *)
          let mffc_size = M.size net n in
          (* pick the best (cut, builder) by measured gain *)
          let best = ref None in
          List.iter
            (fun cut ->
              if cut_usable net n cut then begin
                let leaf_sigs = Array.map N.signal_of_node cut.C.leaves in
                List.iter
                  (fun builder ->
                    match Co.price cost net ~leaves:cut.C.leaves n builder with
                    | None -> ()
                    | Some gain ->
                      stats.candidates <- stats.candidates + 1;
                      let keep =
                        match !best with
                        | None -> Co.accept ~zero_gain:allow_zero_gain gain
                        | Some (bg, _, _) -> gain > bg
                      in
                      if keep then best := Some (gain, cut, builder))
                  (candidate_builders net db cut leaf_sigs ~mffc_size)
              end)
            (C.cuts_of cuts n);
          match !best with
          | None -> ()
          | Some (_, cut, builder) -> (
            (* rebuild the winner (cheap: structural hashing replays it)
               and substitute; the rebuild prices to the same gain, which
               already passed the pass's accept rule *)
            match
              Co.replace ~zero_gain:true cost net ~leaves:cut.C.leaves n
                builder
            with
            | Co.Replaced gain ->
              stats.substitutions <- stats.substitutions + 1;
              stats.gain <- stats.gain + gain
            | Co.No_candidate | Co.Cycle | Co.Rejected _ -> ())
        end)
      nodes;
    Obs.Trace.report trace ~algo:"rewrite"
      [
        ("tried", stats.candidates);
        ("accepted", stats.substitutions);
        ("rejected", stats.candidates - stats.substitutions);
        ("gain", stats.gain);
      ];
    stats.gain
end
