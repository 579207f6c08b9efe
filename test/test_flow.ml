(* Tests for the flow engine: script parsing, the compress2rs flow on real
   benchmarks with SAT-verified equivalence, the specialized AIG flow, and
   the portfolio. *)

open Network

module F = Flow.Engine.Make (Aig)
module Cec_aa = Algo.Cec.Make (Aig) (Aig)
module Copy = Convert.Make (Aig) (Aig)
module S = Lsgen.Suite.Make (Aig)

let test_script_parse () =
  let cmds = Flow.Script.parse Flow.Script.compress2rs in
  Alcotest.(check int) "18 commands" 18 (List.length cmds);
  Alcotest.(check bool) "starts with balance" true
    (List.hd cmds = Flow.Script.Balance);
  match Flow.Script.parse "rs -c 10 -d 2" with
  | [ Flow.Script.Resub { cut_size = 10; max_inserted = 2 } ] -> ()
  | _ -> Alcotest.fail "rs options not parsed"

let test_script_parse_error () =
  match Flow.Script.parse "frobnicate" with
  | exception Flow.Script.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected parse error"

let test_script_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) "to_string . parse" s
        (String.concat "; "
           (List.map Flow.Script.to_string (Flow.Script.parse s))))
    [ "bz; rw; rwz; rf; rfz; rs -c 8"; "rs -c 10 -d 2" ]

(* the flow must shrink the benchmark and provably preserve its function *)
let flow_check name =
  let baseline = S.build name in
  let work = Copy.convert baseline in
  let env = Flow.Engine.make_env Flow.Run_config.Aig in
  let optimized = F.run_script env work Flow.Script.compress_lite in
  Alcotest.(check bool)
    (name ^ " did not grow")
    true
    (Aig.num_gates optimized <= Aig.num_gates baseline);
  (match Aig.check_integrity optimized with
  | [] -> ()
  | errs -> Alcotest.failf "%s integrity: %s" name (String.concat "; " errs));
  match Cec_aa.check baseline optimized with
  | Algo.Cec.Equivalent -> ()
  | Algo.Cec.Counterexample _ -> Alcotest.fail (name ^ ": flow broke the function")
  | Algo.Cec.Unknown -> Alcotest.fail (name ^ ": cec unknown")

let test_flow_small_benchmarks () =
  List.iter flow_check [ "ctrl"; "int2float"; "dec" ]

let test_flow_priority () = flow_check "priority"

let test_specialized_matches_generic () =
  (* the layer-4 specialized flow must agree functionally with the generic
     one (they may differ structurally) *)
  let baseline = S.build "int2float" in
  let g = Copy.convert baseline and s = Copy.convert baseline in
  let env1 = Flow.Engine.make_env Flow.Run_config.Aig in
  let env2 = Flow.Engine.make_env Flow.Run_config.Aig in
  let g = F.run_script env1 g "rw; rwz" in
  let s = Flow.Specialized_aig.run_script env2 s "rw; rwz" in
  (match Cec_aa.check g s with
  | Algo.Cec.Equivalent -> ()
  | Algo.Cec.Counterexample _ | Algo.Cec.Unknown ->
    Alcotest.fail "specialized and generic flows diverge");
  (* both should achieve a comparable gate count (within 15%) *)
  let ng = Aig.num_gates g and ns = Aig.num_gates s in
  Alcotest.(check bool)
    (Printf.sprintf "similar quality (%d vs %d)" ng ns)
    true
    (abs (ng - ns) * 100 <= 15 * max ng ns)

(* Per-representation QoR of the portfolio on ctrl under compress_lite,
   as (nodes, levels, luts, lut_levels) in roster order.  A member that
   reads another representation's row moves these. *)
let test_portfolio () =
  let r =
    Flow.Portfolio.run ~script:Flow.Script.compress_lite (S.build "ctrl")
  in
  Alcotest.(check (list (pair string (pair (pair int int) (pair int int)))))
    "ctrl compress_lite"
    [
      ("aig", ((183, 24), (81, 5)));
      ("mig", ((155, 18), (72, 6)));
      ("xag", ((156, 20), (81, 6)));
      ("xmg", ((143, 17), (66, 6)));
    ]
    (List.map
       (fun (e : Flow.Portfolio.entry) ->
         (e.representation, ((e.nodes, e.levels), (e.luts, e.lut_levels))))
       r.Flow.Portfolio.entries);
  Alcotest.(check string) "best: fewest luts" "xmg"
    r.Flow.Portfolio.best.representation

let test_flow_mig_xag () =
  (* cross-representation flow equivalence on a small arithmetic block *)
  let baseline = S.build "int2float" in
  let module To_mig = Convert.Make (Aig) (Mig) in
  let module To_xag = Convert.Make (Aig) (Xag) in
  let module Fm = Flow.Engine.Make (Mig) in
  let module Fx = Flow.Engine.Make (Xag) in
  let module Cec_am = Algo.Cec.Make (Aig) (Mig) in
  let module Cec_ax = Algo.Cec.Make (Aig) (Xag) in
  let m =
    Fm.run_script (Flow.Engine.make_env Flow.Run_config.Mig)
      (To_mig.convert baseline)
      Flow.Script.compress_lite
  in
  (match Cec_am.check baseline m with
  | Algo.Cec.Equivalent -> ()
  | Algo.Cec.Counterexample _ | Algo.Cec.Unknown ->
    Alcotest.fail "mig flow broke the function");
  let x =
    Fx.run_script (Flow.Engine.make_env Flow.Run_config.Xag)
      (To_xag.convert baseline)
      Flow.Script.compress_lite
  in
  match Cec_ax.check baseline x with
  | Algo.Cec.Equivalent -> ()
  | Algo.Cec.Counterexample _ | Algo.Cec.Unknown ->
    Alcotest.fail "xag flow broke the function"

let suite =
  [
    Alcotest.test_case "script parse" `Quick test_script_parse;
    Alcotest.test_case "script parse error" `Quick test_script_parse_error;
    Alcotest.test_case "script roundtrip" `Quick test_script_roundtrip;
    Alcotest.test_case "compress_lite on small benchmarks" `Slow test_flow_small_benchmarks;
    Alcotest.test_case "compress_lite on priority" `Slow test_flow_priority;
    Alcotest.test_case "specialized = generic" `Slow test_specialized_matches_generic;
    Alcotest.test_case "portfolio" `Slow test_portfolio;
    Alcotest.test_case "mig/xag flows preserve function" `Slow test_flow_mig_xag;
  ]

(* -- additional coverage -- *)

let test_stats () =
  let t = S.build "ctrl" in
  let nodes, levels = F.network_stats t in
  Alcotest.(check int) "nodes" (Aig.num_gates t) nodes;
  let module D = Algo.Depth.Make (Aig) in
  Alcotest.(check int) "levels" (D.depth t) levels

let test_full_compress2rs_small () =
  (* the exact paper flow (18 commands), end to end, SAT-verified *)
  let baseline = S.build "int2float" in
  let work = Copy.convert baseline in
  let env = Flow.Engine.make_env Flow.Run_config.Aig in
  let optimized = F.run_script env work Flow.Script.compress2rs in
  Alcotest.(check bool) "shrank" true
    (Aig.num_gates optimized < Aig.num_gates baseline);
  match Cec_aa.check baseline optimized with
  | Algo.Cec.Equivalent -> ()
  | Algo.Cec.Counterexample _ | Algo.Cec.Unknown ->
    Alcotest.fail "compress2rs broke int2float"

let test_env_reuse_across_benchmarks () =
  (* one env (and its NPN database) across several benchmarks; a config
     with no shipped table, so the database fills as it goes *)
  let env =
    {
      (Flow.Engine.make_env Flow.Run_config.Aig) with
      Flow.Engine.db =
        Exact.Database.create
          { Exact.Synth.aig_config with conflict_budget = 20_000 };
    }
  in
  List.iter
    (fun name ->
      let baseline = S.build name in
      let optimized = F.run_script env (Copy.convert baseline) "rw" in
      match Cec_aa.check baseline optimized with
      | Algo.Cec.Equivalent -> ()
      | Algo.Cec.Counterexample _ | Algo.Cec.Unknown ->
        Alcotest.fail (name ^ ": shared-env rewrite broke the function"))
    [ "ctrl"; "int2float"; "router" ];
  let _, misses, _ = Exact.Database.stats env.Flow.Engine.db in
  Alcotest.(check bool) "database populated" true (misses > 0)

let test_xmg_flow () =
  let baseline = S.build "ctrl" in
  let module To_xmg = Convert.Make (Aig) (Xmg) in
  let module Fg = Flow.Engine.Make (Xmg) in
  let module Cg = Algo.Cec.Make (Aig) (Xmg) in
  let x =
    Fg.run_script (Flow.Engine.make_env Flow.Run_config.Xmg)
      (To_xmg.convert baseline)
      Flow.Script.compress_lite
  in
  match Cg.check baseline x with
  | Algo.Cec.Equivalent -> ()
  | Algo.Cec.Counterexample _ | Algo.Cec.Unknown ->
    Alcotest.fail "xmg flow broke the function"

(* One interpreter, two modes: the unarmed run (no checkpoint) and the
   armed one (a stop hook that never fires, so it checkpoints after every
   pass) must write byte-identical AIGER. *)
let test_armed_matches_unarmed () =
  let module To_mig = Convert.Make (Aig) (Mig) in
  let module Of_mig = Convert.Make (Mig) (Aig) in
  let module Fm = Flow.Engine.Make (Mig) in
  let script = Flow.Script.compress2rs and stop () = false in
  let text t =
    let path = Filename.temp_file "genlog_flow" ".aag" in
    Lsio.Aiger.write_file t path;
    let s = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    s
  in
  List.iter
    (fun name ->
      let net = S.build name in
      let same rep a b =
        Alcotest.(check string) (name ^ " " ^ rep) (text a) (text b)
      in
      let aig () = Copy.convert net and mig () = To_mig.convert net in
      let env = Flow.Engine.make_env in
      same "aig"
        (F.run_script (env Flow.Run_config.Aig) (aig ()) script)
        (fst
           (F.run_script_safe (env Flow.Run_config.Aig) ~stop (aig ()) script));
      same "mig"
        (Of_mig.convert
           (Fm.run_script (env Flow.Run_config.Mig) (mig ()) script))
        (Of_mig.convert
           (fst
              (Fm.run_script_safe (env Flow.Run_config.Mig) ~stop (mig ())
                 script))))
    [ "ctrl"; "cavlc" ]

let extra_suite =
  [
    Alcotest.test_case "network stats" `Quick test_stats;
    Alcotest.test_case "full compress2rs (int2float)" `Slow test_full_compress2rs_small;
    Alcotest.test_case "env reuse across benchmarks" `Slow test_env_reuse_across_benchmarks;
    Alcotest.test_case "xmg flow" `Slow test_xmg_flow;
    Alcotest.test_case "armed run = unarmed run (aiger)" `Slow
      test_armed_matches_unarmed;
  ]

let suite = suite @ extra_suite
