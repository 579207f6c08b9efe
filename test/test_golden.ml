(* Golden parity regression for the cost-generic refactor.

   The five optimization passes now compute every gain through the shared
   cost engine (Algo.Cost).  Under [--cost area] that engine must be
   bit-for-bit equivalent to the seed's inline node-count arithmetic: the
   smoke flow (compress2rs + 6-LUT map on the lsgen suite) must reproduce
   the pinned per-pass decision counters AND final QoR exactly.  The
   pinned numbers are the smoke values since the CDCL kernel rewrite
   (commit 469725a), not the seed's: that rewrite moved ctrl from 150/24/61/5 to
   148/24/68/7 and int2float's luts from 33 to 32 (EXPERIMENTS.md).

   [--cost depth] has no seed counterpart; its QoR is pinned as a plain
   regression value so objective-specific decision drift is caught. *)

open Network

module F = Flow.Engine.Make (Aig)
module S = Lsgen.Suite.Make (Aig)
module L = Algo.Lutmap.Make (Aig)
module D = Algo.Depth.Make (Aig)

type qor = { nodes : int; levels : int; luts : int; lut_levels : int }

(* algo -> (tried, accepted), aggregated over all invocations in the flow *)
type golden = { q : qor; decisions : (string * (int * int)) list }

(* smoke goldens (since 469725a): compress2rs + 6-LUT map, straight on the
   suite baselines (same construction as [bench smoke] and
   bench/BASELINE_smoke.json) *)
let area_goldens =
  [
    ( "ctrl",
      {
        q = { nodes = 148; levels = 24; luts = 68; lut_levels = 7 };
        decisions =
          [
            ("balance", (28, 17));
            ("refactor", (60, 23));
            ("resub", (80, 38));
            ("rewrite", (1515, 42));
          ];
      } );
    ( "int2float",
      {
        q = { nodes = 90; levels = 17; luts = 32; lut_levels = 5 };
        decisions =
          [
            ("balance", (26, 16));
            ("refactor", (45, 15));
            ("resub", (110, 18));
            ("rewrite", (871, 25));
          ];
      } );
    ( "router",
      {
        q = { nodes = 220; levels = 25; luts = 68; lut_levels = 5 };
        decisions =
          [
            ("balance", (32, 22));
            ("refactor", (99, 43));
            ("resub", (40, 7));
            ("rewrite", (1178, 73));
          ];
      } );
  ]

(* regression pins for the depth objective (first recorded values; any
   drift means the depth engine changed its decisions) *)
let depth_goldens =
  [
    ("ctrl", { nodes = 223; levels = 18; luts = 87; lut_levels = 6 });
    ("int2float", { nodes = 113; levels = 17; luts = 46; lut_levels = 5 });
  ]

let run_smoke ~cost name =
  let baseline = S.build name in
  let trace = Obs.Trace.create ~flow:name () in
  let opt = F.run_script (Flow.Engine.aig_env ~cost ()) ~trace baseline
      Flow.Script.compress2rs
  in
  let m = L.map opt ~k:6 () in
  let q =
    {
      nodes = Aig.num_gates opt;
      levels = D.depth opt;
      luts = m.L.lut_count;
      lut_levels = m.L.depth;
    }
  in
  (* aggregate per-pass decision counters across the whole script *)
  let tbl = Hashtbl.create 8 in
  List.iter
    (function
      | Obs.Trace.Counters { algo; counters; _ } ->
        let g k = Option.value ~default:0 (List.assoc_opt k counters) in
        let t0, a0 =
          Option.value ~default:(0, 0) (Hashtbl.find_opt tbl algo)
        in
        Hashtbl.replace tbl algo (t0 + g "tried", a0 + g "accepted")
      | _ -> ())
    (Obs.Trace.events trace);
  (q, tbl)

let check_qor name expected actual =
  Alcotest.(check int) (name ^ " nodes") expected.nodes actual.nodes;
  Alcotest.(check int) (name ^ " levels") expected.levels actual.levels;
  Alcotest.(check int) (name ^ " luts") expected.luts actual.luts;
  Alcotest.(check int) (name ^ " lut_levels") expected.lut_levels
    actual.lut_levels

let test_area_parity () =
  List.iter
    (fun (name, golden) ->
      let q, decisions = run_smoke ~cost:Algo.Cost.Spec.Area name in
      check_qor (name ^ " (area)") golden.q q;
      List.iter
        (fun (algo, (tried, accepted)) ->
          let at, aa =
            Option.value ~default:(0, 0) (Hashtbl.find_opt decisions algo)
          in
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s %s tried/accepted" name algo)
            (tried, accepted) (at, aa))
        golden.decisions)
    area_goldens

let test_depth_regression () =
  List.iter
    (fun (name, golden) ->
      let q, _ = run_smoke ~cost:Algo.Cost.Spec.Depth name in
      Printf.eprintf "[golden] %s depth-run actual: %d/%d/%d/%d\n%!" name
        q.nodes q.levels q.luts q.lut_levels;
      check_qor (name ^ " (depth)") golden q)
    depth_goldens

let suite =
  [
    Alcotest.test_case "area matches seed smoke goldens" `Quick
      test_area_parity;
    Alcotest.test_case "depth QoR regression pins" `Quick
      test_depth_regression;
  ]
