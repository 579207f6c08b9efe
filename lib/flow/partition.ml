(* Partition-parallel optimization: the intra-network counterpart of the
   portfolio's flow-level parallelism.

   The network is carved into disjoint, output-bounded partitions by
   reconvergence-driven region growing: regions are extended greedily by
   the eligible gate that introduces the fewest fresh leaves, so growth
   follows reconvergent paths (a gate whose fanins are already inside
   costs nothing) exactly like the min-cost leaf expansion of
   [Algo.Reconv].  A gate only becomes eligible once every fanin gate is
   assigned (to this or an earlier region), which makes every partition
   topologically convex by construction: partition indices are a valid
   evaluation order, and each partition's leaves are primary inputs or
   outputs of strictly earlier partitions.  That convexity is what makes
   the final stitch a single forward pass instead of a fixpoint.

   Each partition is exported as a standalone sub-network (fresh PI per
   leaf, PO per boundary gate) and any [Script] pipeline runs on the
   pieces concurrently across OCaml 5 domains ([Parmap]).  A replacement
   is kept only when it improves the cost function (gate count, then
   depth), and every kept replacement is guarded by a SAT equivalence
   check ([Algo.Cec]) that must prove it equivalent.  The guarded pieces are then rebuilt into a fresh parent through the
   destination's structural hasher, which also deduplicates across
   partition boundaries and sweeps dangling logic.

   Instrumentation: one span per phase (carve / opt / stitch) plus one
   span and one counter event per partition on the worker's trace child,
   and one counter event with the verdict totals. *)

module Make (N : Network.Intf.NETWORK) = struct
  module B = Network.Build.Make (N)
  module T = Network.Topo.Make (N)
  module E = Engine.Make (N)
  module Dp = Algo.Depth.Make (N)
  module Copy = Network.Convert.Make (N) (N)
  module Cec = Algo.Cec.Make (N) (N)
  module Co = Algo.Cost.Make (N)

  type partition = {
    id : int;
    gates : N.node array;  (* parent gates, topological within the region *)
    leaves : N.node array;  (* distinct external fanins: PIs or earlier gates *)
    outputs : N.node array;  (* region gates referenced outside the region *)
  }

  (* -- carving -- *)

  let carve ?(size_cap = 2000) (net : N.t) : partition list =
    let size_cap = max 1 size_cap in
    let n = N.size net in
    let order = T.order net in
    let reachable = Array.make n false in
    List.iter (fun g -> reachable.(g) <- true) order;
    (* Unassigned-fanin-gate counters, one per fanin edge (fanout lists
       mirror fanin edges, so the decrements below stay consistent). *)
    let remaining = Array.make n 0 in
    List.iter
      (fun g ->
        let r = ref 0 in
        Array.iter
          (fun s -> if N.is_gate net (N.node_of_signal s) then incr r)
          (N.fanin net g);
        remaining.(g) <- !r)
      order;
    let part = Array.make n (-1) in
    let eligible = ref [] in
    List.iter
      (fun g -> if remaining.(g) = 0 then eligible := g :: !eligible)
      order;
    let rec remove_first x = function
      | [] -> []
      | y :: tl -> if y = x then tl else y :: remove_first x tl
    in
    let partitions = ref [] in
    let pid = ref 0 in
    while !eligible <> [] do
      let id = !pid in
      let region_rev = ref [] in
      let region_size = ref 0 in
      let leaves_rev = ref [] in
      let is_leaf = Hashtbl.create 64 in
      (* Fresh leaves gate [g] would add to the open region: fanins that are
         neither constant, inside the region, nor already leaves. *)
      let cost g =
        let c = ref 0 in
        Array.iter
          (fun s ->
            let f = N.node_of_signal s in
            if f <> 0 && part.(f) <> id && not (Hashtbl.mem is_leaf f) then
              incr c)
          (N.fanin net g);
        !c
      in
      let take_best () =
        match !eligible with
        | [] -> None
        | first :: rest ->
          let best = ref first and best_cost = ref (cost first) in
          (try
             List.iter
               (fun g ->
                 if !best_cost = 0 then raise Exit;
                 let c = cost g in
                 if c < !best_cost then begin
                   best := g;
                   best_cost := c
                 end)
               rest
           with Exit -> ());
          eligible := remove_first !best !eligible;
          Some !best
      in
      let growing = ref true in
      while !growing && !region_size < size_cap do
        match take_best () with
        | None -> growing := false
        | Some g ->
          part.(g) <- id;
          incr region_size;
          region_rev := g :: !region_rev;
          Array.iter
            (fun s ->
              let f = N.node_of_signal s in
              if f <> 0 && part.(f) <> id && not (Hashtbl.mem is_leaf f) then begin
                Hashtbl.replace is_leaf f ();
                leaves_rev := f :: !leaves_rev
              end)
            (N.fanin net g);
          List.iter
            (fun h ->
              if reachable.(h) && part.(h) = -1 then begin
                remaining.(h) <- remaining.(h) - 1;
                if remaining.(h) = 0 then eligible := h :: !eligible
              end)
            (N.fanout net g)
      done;
      partitions :=
        {
          id;
          gates = Array.of_list (List.rev !region_rev);
          leaves = Array.of_list (List.rev !leaves_rev);
          outputs = [||];
        }
        :: !partitions;
      incr pid
    done;
    (* Boundary gates: referenced by a primary output or by a gate of a
       different partition.  Dangling gates were never assigned and simply
       do not survive the stitch. *)
    let is_out = Array.make n false in
    N.foreach_po net (fun s ->
        let f = N.node_of_signal s in
        if N.is_gate net f then is_out.(f) <- true);
    List.iter
      (fun g ->
        Array.iter
          (fun s ->
            let f = N.node_of_signal s in
            if N.is_gate net f && part.(f) <> part.(g) then is_out.(f) <- true)
          (N.fanin net g))
      order;
    List.rev_map
      (fun p ->
        {
          p with
          outputs =
            Array.of_list
              (List.filter (fun g -> is_out.(g)) (Array.to_list p.gates));
        })
      !partitions

  (* -- export: one partition as a standalone sub-network -- *)

  (* Read-only on the parent, so exports may run concurrently. *)
  let export (net : N.t) (p : partition) : N.t =
    let cap = Array.length p.gates + Array.length p.leaves + 2 in
    let sub = N.create ~initial_capacity:cap () in
    let map = Hashtbl.create (2 * cap) in
    Array.iter (fun l -> Hashtbl.replace map l (N.create_pi sub)) p.leaves;
    let resolve s =
      let f = N.node_of_signal s in
      let base = if f = 0 then N.constant false else Hashtbl.find map f in
      N.complement_if (N.is_complemented s) base
    in
    Array.iter
      (fun g ->
        let fanins = Array.map resolve (N.fanin net g) in
        Hashtbl.replace map g (B.of_kind sub (N.gate_kind net g) fanins))
      p.gates;
    Array.iter (fun g -> N.create_po sub (Hashtbl.find map g)) p.outputs;
    sub

  (* -- per-partition optimization with the equivalence guard -- *)

  type verdict =
    | Accepted
    | Rejected_cost
    | Rejected_cex
    | Failed  (* the job raised: original cone kept *)
    | Cancelled  (* the stop hook tripped before the job started: ditto *)

  type piece_result = {
    part : partition;
    chosen : N.t;  (* what the stitch will instantiate *)
    verdict : verdict;
    degradation : Engine.degradation option;
        (* why the piece's job failed or was cancelled *)
  }

  (* [trace] is the worker's own child sink. *)
  let optimize_piece (env : Engine.env) ~trace ~script (net : N.t)
      (p : partition) : piece_result =
    let sub = export net p in
    let gates_before = N.num_gates sub in
    let pass = Printf.sprintf "part%d" p.id in
    Obs.Trace.span trace ~pass ~index:p.id
      ~before:(fun () -> (gates_before, Dp.depth sub))
      ~after:(fun r -> (N.num_gates r.chosen, Dp.depth r.chosen))
      (fun () ->
      (* the run is unarmed (the stop hook acts between pieces, and
         arming would checkpoint every pass): a pass exception fails the
         job, and [run] keeps the piece's original cone *)
      let optimized = E.run_script env (Copy.convert sub) script in
      (* stitch gate: the piece is worth keeping only if it strictly
         improves the env's objective as a lexicographic
         (objective, gates, depth) triple — for the default area objective
         this is exactly the historical "fewer gates, or gates-equal with
         less depth" rule *)
      let improved =
        Co.network_better env.Engine.cost ~before:sub ~after:optimized
      in
      (* only a proof of equivalence accepts the piece; a counterexample
         or Unknown keeps the original *)
      let chosen, verdict =
        if not improved then (sub, Rejected_cost)
        else
          match Cec.check ~trace sub optimized with
          | Algo.Cec.Equivalent -> (optimized, Accepted)
          | Algo.Cec.Counterexample _ | Algo.Cec.Unknown -> (sub, Rejected_cex)
      in
      let gates_after = N.num_gates chosen in
      Obs.Trace.report trace ~algo:"partition"
        [
          ("part", p.id);
          ("gates", gates_before);
          ("leaves", Array.length p.leaves);
          ("outputs", Array.length p.outputs);
          ("gain", gates_before - gates_after);
          ("accepted", if verdict = Accepted then 1 else 0);
        ];
      { part = p; chosen; verdict; degradation = None })

  (* -- stitch: rebuild the parent from the guarded pieces -- *)

  (* Convexity guarantees a single forward pass suffices: when partition
     [i] is instantiated, every leaf is a parent PI or an output of a
     partition [< i], so its destination signal is already known.  The
     destination's structural hasher deduplicates identical logic across
     partition boundaries, and logic not reachable from the POs is never
     instantiated. *)
  let stitch (net : N.t) (pieces : piece_result array) : N.t =
    let dst = N.create ~initial_capacity:(N.size net) () in
    let map = Array.make (N.size net) (-1) in
    map.(0) <- N.constant false;
    N.foreach_pi net (fun pi -> map.(pi) <- N.create_pi dst);
    Array.iter
      (fun r ->
        let leaves =
          Array.map
            (fun leaf ->
              assert (map.(leaf) >= 0);
              map.(leaf))
            r.part.leaves
        in
        Array.iteri
          (fun j s -> map.(r.part.outputs.(j)) <- s)
          (Copy.instantiate dst r.chosen leaves))
      pieces;
    N.foreach_po net (fun s ->
        N.create_po dst
          (N.complement_if (N.is_complemented s) map.(N.node_of_signal s)));
    dst

  (* -- the engine -- *)

  (* Phase timings and gate counts are in the trace's spans. *)
  type stats = {
    partitions : int;
    accepted : int;
    rejected_cost : int;
    rejected_cex : int;
    failed : int;  (* jobs that raised (cone kept) *)
    degraded_pieces : int;  (* failed or cancelled pieces *)
    stitch_fallbacks : int;  (* 0 = clean; 1 = all-original; 2 = identity *)
    degradations : Engine.degradation list;
        (* every degradation the run emitted as a trace event: one per
           cancelled piece ("partN") with the stop hook's reason, and one
           per failed job and stitch fallback as "exception" *)
    jobs : int;
  }

  (* Run [script] over every partition of [net] in parallel and return the
     stitched result.  Every worker domain shares [env]: its
     exact-synthesis database is mutex-guarded, and the rest of an env is
     immutable.  Each worker writes its own trace child.  The parent
     network is only read between carve and stitch, which is what makes the
     worker phase safe.

     [stop] is the caller's stop hook (see [Engine.run_script_safe]),
     polled before each piece is claimed: once it returns a reason, the
     unclaimed pieces keep their original cones, each with one "partN"
     degradation carrying that reason, while running pieces finish. *)
  let run ?(size_cap = 2000) ?(jobs = Domain.recommended_domain_count ())
      ?(script = Script.compress2rs) ?(trace = Obs.Trace.null) ?stop ~env
      (net : N.t) : N.t * stats =
    (* the parent is untouched until the stitch, so its stats are stable *)
    let parent = lazy (N.num_gates net, Dp.depth net) in
    let parent _ = Lazy.force parent in
    let parts =
      Obs.Trace.span trace ~pass:"partition-carve" ~index:0 ~before:parent
        ~after:parent (fun () ->
          let parts = Array.of_list (carve ~size_cap net) in
          Obs.Trace.report trace ~algo:"partition"
            [ ("partitions", Array.length parts); ("size_cap", size_cap) ];
          parts)
    in
    let results, st =
      Obs.Trace.span trace ~pass:"partition-opt" ~index:1 ~before:parent
        ~after:parent (fun () ->
          let job_results, states =
            Parmap.map_results ~jobs ?stop
              ~init:(fun k ->
                Obs.Trace.child trace ~flow:(Printf.sprintf "w%d" k))
              ~f:(fun wtrace -> optimize_piece env ~trace:wtrace ~script net)
              parts
          in
          Obs.Trace.merge trace (Array.to_list states);
          (* per-job isolation: a piece whose job raised or was cancelled
             keeps its original cone — the stitch then reproduces the
             parent's logic for that region, so a crash or a stop costs
             QoR, never correctness *)
          let results =
            Array.mapi
              (fun i -> function
                | Ok r -> r
                | Error (e : Parmap.job_error) ->
                  let p = parts.(i) in
                  let verdict, reason, detail =
                    match e.Parmap.err_exn with
                    | Parmap.Cancelled reason ->
                      (Cancelled, reason, "piece not started; cone kept")
                    | exn -> (Failed, "exception", Printexc.to_string exn)
                  in
                  let d =
                    Engine.degrade trace ~pass:(Printf.sprintf "part%d" p.id)
                      ~reason ~detail
                  in
                  { part = p; chosen = export net p; verdict;
                    degradation = Some d })
              job_results
          in
          let count f =
            Array.fold_left (fun a r -> if f r then a + 1 else a) 0 results
          in
          let st =
            {
              partitions = Array.length parts;
              accepted = count (fun r -> r.verdict = Accepted);
              rejected_cost = count (fun r -> r.verdict = Rejected_cost);
              rejected_cex = count (fun r -> r.verdict = Rejected_cex);
              failed = count (fun r -> r.verdict = Failed);
              degraded_pieces = count (fun r -> r.degradation <> None);
              stitch_fallbacks = 0;
              degradations = [];
              jobs;
            }
          in
          Obs.Trace.report trace ~algo:"partition"
            [
              ("accepted", st.accepted);
              ("rejected_cost", st.rejected_cost);
              ("rejected_cex", st.rejected_cex);
              ("failed", st.failed);
              ("degraded", st.degraded_pieces);
              ("jobs", jobs);
              ("size_cap", size_cap);
            ];
          (results, st))
    in
    (* the stitch itself is guarded: if it raises (a bug, or a network
       operation that fails), retry with every piece reverted to its
       original cone; if even that fails, fall back to an identity copy
       of the parent.  Either fallback degrades QoR, never correctness. *)
    let out, fallbacks =
      Obs.Trace.span trace ~pass:"partition-stitch" ~index:2 ~before:parent
        ~after:(fun (out, _) -> (N.num_gates out, Dp.depth out))
        (fun () ->
          let fail detail =
            Engine.degrade trace ~pass:"partition-stitch" ~reason:"exception"
              ~detail
          in
          match stitch net results with
          | out -> (out, [])
          | exception e1 -> (
            let d1 = fail (Printexc.to_string e1) in
            let originals =
              Array.map (fun r -> { r with chosen = export net r.part }) results
            in
            match stitch net originals with
            | out -> (out, [ d1 ])
            | exception e2 ->
              let d2 =
                fail
                  ("fallback stitch also failed: " ^ Printexc.to_string e2
                 ^ "; returning identity copy")
              in
              (Copy.convert net, [ d1; d2 ])))
    in
    let degradations =
      List.filter_map (fun r -> r.degradation) (Array.to_list results)
      @ fallbacks
    in
    (out, { st with stitch_fallbacks = List.length fallbacks; degradations })
end
