(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md, experiment index).

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe table1     -- generic vs specialized AIG flow
     dune exec bench/main.exe table2     -- AIG/MIG/XAG comparison + portfolio
     dune exec bench/main.exe micro      -- Bechamel kernel microbenchmarks
     dune exec bench/main.exe cuts       -- cut-enumeration kernel sweep
     dune exec bench/main.exe ablation   -- design-choice ablations
     dune exec bench/main.exe cost       -- cost-objective matrix, CEC-checked
     dune exec bench/main.exe partition  -- partition-parallel engine vs sequential
     dune exec bench/main.exe sat        -- CDCL kernel on CEC miters
     dune exec bench/main.exe cache      -- on-the-fly synthesis store, cold vs warm
     dune exec bench/main.exe tables     -- regenerate the shipped NPN tables

   Every subcommand additionally writes a machine-readable
   [BENCH_<name>.json] (benchmark, stage, nodes, levels, LUTs, seconds)
   for comparison across commits; [genlog report --bench] prints one.
   No subcommand gates QoR: the one QoR gate is test/test_golden.ml,
   which [dune runtest] runs on the five smoke circuits (ctrl, cavlc,
   int2float, dec, router).

   Absolute numbers differ from the paper (scaled benchmark generators, an
   OCaml implementation, a from-scratch SAT solver); the comparisons the
   tables make — generic ~ specialized, all three representations within a
   few percent, portfolio best — are the reproduction target.  Results are
   recorded against the paper in EXPERIMENTS.md. *)

open Genlog

module D = Depth.Make (Aig)
module L = Lutmap.Make (Aig)

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let pct base v =
  if base = 0 then 0.0
  else 100.0 *. (float_of_int v -. float_of_int base) /. float_of_int base

(* the benchmark list of the paper's Table 2 (scaled stand-ins) *)
let suite = Suite.names

let row benchmark stage fields =
  (("benchmark", Bench_json.Str benchmark) :: ("stage", Bench_json.Str stage)
  :: fields)

(* -------------------------------------------------------------------- *)
(* Table 1: apple-to-apple comparison of the generic flow against the    *)
(* layer-4 specialized AIG flow.                                         *)
(* -------------------------------------------------------------------- *)

let table1 () =
  print_endline "=== Table 1: generic flow vs specialized AIG flow ===";
  print_endline "(paper: generic-vs-ABC; here: generic functor vs layer-4";
  print_endline " specialized implementation in the same code base)";
  Printf.printf "%-12s | %8s %6s %6s %8s | %8s %6s %6s %8s\n" "benchmark"
    "spec.Nd" "Lvl" "LUTs" "time" "gen.Nd" "Lvl" "LUTs" "time";
  let tot_spec_nd = ref 0 and tot_spec_lvl = ref 0 and tot_spec_lut = ref 0 in
  let tot_gen_nd = ref 0 and tot_gen_lvl = ref 0 and tot_gen_lut = ref 0 in
  let tot_spec_time = ref 0.0 and tot_gen_time = ref 0.0 in
  let module Copy = Convert.Make (Aig) (Aig) in
  (* shared environments: the database persists across benchmarks *)
  let env_spec = Flow.make_env Run_config.Aig in
  let env_gen = Flow.make_env Run_config.Aig in
  let module F = Flow.Make (Aig) in
  let trace = Trace.create ~flow:"table1" () in
  let rows = ref [] in
  List.iter
    (fun name ->
      let baseline = Suite.build name in
      let spec, t_spec =
        time_it (fun () ->
            Flow.Specialized_aig.run_script env_spec (Copy.convert baseline)
              Script.compress2rs)
      in
      let tr = Trace.child trace ~flow:name in
      let gen, t_gen =
        time_it (fun () ->
            F.run_script env_gen ~trace:tr (Copy.convert baseline)
              Script.compress2rs)
      in
      Trace.merge trace [ tr ];
      let m_spec = L.map spec ~k:6 () in
      let m_gen = L.map gen ~k:6 () in
      let nd_s = Aig.num_gates spec and nd_g = Aig.num_gates gen in
      let lv_s = D.depth spec and lv_g = D.depth gen in
      Printf.printf "%-12s | %8d %6d %6d %7.2fs | %8d %6d %6d %7.2fs\n" name
        nd_s lv_s m_spec.L.lut_count t_spec nd_g lv_g m_gen.L.lut_count t_gen;
      rows :=
        row name "generic"
          [ ("nodes", Bench_json.Int nd_g); ("levels", Bench_json.Int lv_g);
            ("luts", Bench_json.Int m_gen.L.lut_count);
            ("seconds", Bench_json.Float t_gen) ]
        :: row name "specialized"
             [ ("nodes", Bench_json.Int nd_s); ("levels", Bench_json.Int lv_s);
               ("luts", Bench_json.Int m_spec.L.lut_count);
               ("seconds", Bench_json.Float t_spec) ]
        :: !rows;
      tot_spec_nd := !tot_spec_nd + nd_s;
      tot_spec_lvl := !tot_spec_lvl + lv_s;
      tot_spec_lut := !tot_spec_lut + m_spec.L.lut_count;
      tot_gen_nd := !tot_gen_nd + nd_g;
      tot_gen_lvl := !tot_gen_lvl + lv_g;
      tot_gen_lut := !tot_gen_lut + m_gen.L.lut_count;
      tot_spec_time := !tot_spec_time +. t_spec;
      tot_gen_time := !tot_gen_time +. t_gen)
    suite;
  Printf.printf "%-12s | %8d %6d %6d %7.2fs | %8d %6d %6d %7.2fs\n" "Total"
    !tot_spec_nd !tot_spec_lvl !tot_spec_lut !tot_spec_time !tot_gen_nd
    !tot_gen_lvl !tot_gen_lut !tot_gen_time;
  Printf.printf
    "\nGeneric flow vs specialized baseline: Nd %+.2f%%  Lvl %+.2f%%  LUTs %+.2f%%\n"
    (pct !tot_spec_nd !tot_gen_nd)
    (pct !tot_spec_lvl !tot_gen_lvl)
    (pct !tot_spec_lut !tot_gen_lut);
  Printf.printf "(paper Table 1: +1.14%% Nd, +3.02%% Lvl, +0.65%% LUTs)\n\n";
  Trace.write_file trace "TRACE_table1.jsonl";
  Printf.printf "[bench] wrote TRACE_table1.jsonl (%d events)\n%!"
    (List.length (Trace.events trace));
  Bench_json.write "table1" (List.rev !rows)

(* -------------------------------------------------------------------- *)
(* Table 2: the generic flow on AIG / MIG / XAG + portfolio.             *)
(* -------------------------------------------------------------------- *)

let table2 () =
  print_endline "=== Table 2: EPFL-suite stand-ins, four representations ===";
  let reps = List.map fst Run_config.representations in
  Printf.printf "%-12s %8s | %6s %4s %5s" "benchmark" "i/o" "B.Nd" "Lvl" "LUTs";
  List.iter
    (fun rep ->
      Printf.printf " | %6s %4s %5s %6s" (String.uppercase_ascii rep ^ ".Nd")
        "Lvl" "LUTs" "time")
    reps;
  print_newline ();
  let trace = Trace.create ~flow:"table2" () in
  let rows = ref [] in
  let results =
    List.map
      (fun name ->
        let baseline = Suite.build name in
        let mb = L.map baseline ~k:6 () in
        let tr = Trace.child trace ~flow:name in
        let r, wall =
          time_it (fun () -> Flow.Portfolio.run ~trace:tr baseline)
        in
        Trace.merge trace [ tr ];
        let sum =
          List.fold_left
            (fun acc (e : Flow.Portfolio.entry) -> acc +. e.time)
            0. r.entries
        in
        Printf.printf "%-12s %3d/%-4d | %6d %4d %5d" name
          (Aig.num_pis baseline) (Aig.num_pos baseline) (Aig.num_gates baseline)
          (D.depth baseline) mb.L.lut_count;
        List.iter
          (fun (e : Flow.Portfolio.entry) ->
            Printf.printf " | %6d %4d %5d %5.1fs" e.nodes e.levels e.luts
              e.time)
          r.entries;
        Printf.printf " | wall %5.1fs (sum %5.1fs)\n%!" wall sum;
        let entry_row (e : Flow.Portfolio.entry) =
          row name e.representation
            [ ("nodes", Bench_json.Int e.nodes);
              ("levels", Bench_json.Int e.levels);
              ("luts", Bench_json.Int e.luts);
              ("lut_levels", Bench_json.Int e.lut_levels);
              ("seconds", Bench_json.Float e.time) ]
        in
        rows :=
          row name "portfolio"
            [ ("luts", Bench_json.Int r.best.luts);
              ("seconds", Bench_json.Float wall);
              ("seconds_sum", Bench_json.Float sum) ]
          :: List.rev_append (List.map entry_row r.entries)
               (row name "baseline"
                  [ ("nodes", Bench_json.Int (Aig.num_gates baseline));
                    ("levels", Bench_json.Int (D.depth baseline));
                    ("luts", Bench_json.Int mb.L.lut_count) ]
               :: !rows);
        (mb.L.lut_count, r, wall, sum))
      suite
  in
  let total f = List.fold_left (fun acc x -> acc + f x) 0 results in
  let totalf f = List.fold_left (fun acc x -> acc +. f x) 0. results in
  let entry rep (_, (r : Flow.Portfolio.result), _, _) =
    List.find
      (fun (e : Flow.Portfolio.entry) -> e.representation = rep)
      r.entries
  in
  let per_rep f = String.concat "  " (List.map f reps) in
  let base = total (fun (b, _, _, _) -> b) in
  let best = total (fun (_, r, _, _) -> r.Flow.Portfolio.best.luts) in
  let rep_luts rep = total (fun x -> (entry rep x).luts) in
  let imp v = -.pct base v in
  Printf.printf "\nTotal 6-LUTs: baseline %d  %s  portfolio %d\n" base
    (per_rep (fun rep -> Printf.sprintf "%s %d" rep (rep_luts rep)))
    best;
  Printf.printf "Total time:   %s  | portfolio wall %.1fs (sum %.1fs)\n"
    (per_rep (fun rep ->
         Printf.sprintf "%s %.1fs" rep (totalf (fun x -> (entry rep x).time))))
    (totalf (fun (_, _, wall, _) -> wall))
    (totalf (fun (_, _, _, sum) -> sum));
  Printf.printf "LUT improvement: %s  portfolio %.2f%%\n"
    (per_rep (fun rep -> Printf.sprintf "%s %.2f%%" rep (imp (rep_luts rep))))
    (imp best);
  print_endline
    "(paper Table 2: aig +30.04%, mig +27.78%, xag +31.39% portfolio; \
     abstract: 29.53/27.01/29.82)\n";
  Trace.write_file trace "TRACE_table2.jsonl";
  Printf.printf "[bench] wrote TRACE_table2.jsonl (%d events)\n%!"
    (List.length (Trace.events trace));
  Bench_json.write "table2" (List.rev !rows)

(* -------------------------------------------------------------------- *)
(* Cost matrix: the generic flow under each built-in objective on three  *)
(* smoke benchmarks.  Every run is CEC-checked against its input and the *)
(* engine's own objective must never worsen across the flow; rows land   *)
(* in BENCH_cost.json (one row per benchmark x cost).                    *)
(* -------------------------------------------------------------------- *)

let cost_bench () =
  print_endline "=== Cost matrix: compress2rs under area/depth/edges ===";
  let module F = Flow.Make (Aig) in
  let module C = Cec.Make (Aig) (Aig) in
  let module Co = Cost.Make (Aig) in
  let module Copy = Convert.Make (Aig) (Aig) in
  let module Cl = Convert.Cleanup (Aig) in
  let rows = ref [] in
  Printf.printf "%-12s %-6s | %8s %5s %9s %8s %4s\n" "benchmark" "cost"
    "nodes" "lvl" "objective" "time" "cec";
  List.iter
    (fun name ->
      let baseline = Suite.build name in
      List.iter
        (fun spec ->
          let cost_name = Cost.Spec.to_string spec in
          let env = Flow.make_env ~cost:spec Run_config.Aig in
          let before = Co.eval spec (Cl.cleanup (Copy.convert baseline)) in
          let input = Copy.convert baseline in
          let opt, seconds =
            time_it (fun () -> F.run_script env input Script.compress2rs)
          in
          let after = Co.eval spec opt in
          let equiv =
            match C.check baseline opt with
            | Algo.Cec.Equivalent -> true
            | Algo.Cec.Counterexample _ | Algo.Cec.Unknown -> false
          in
          if not equiv then begin
            Printf.eprintf "cost: %s under %s is NOT equivalent to its input\n"
              name cost_name;
            exit 1
          end;
          if after > before then begin
            Printf.eprintf "cost: %s under %s worsened its objective %d -> %d\n"
              name cost_name before after;
            exit 1
          end;
          let nodes = Aig.num_gates opt and levels = D.depth opt in
          Printf.printf "%-12s %-6s | %8d %5d %9d %7.2fs   ok\n%!" name
            cost_name nodes levels after seconds;
          rows :=
            row name cost_name
              [ ("cost", Bench_json.Str cost_name);
                ("nodes", Bench_json.Int nodes);
                ("levels", Bench_json.Int levels);
                ("objective", Bench_json.Int after);
                ("seconds", Bench_json.Float seconds) ]
            :: !rows)
        [ Cost.Spec.Area; Cost.Spec.Depth; Cost.Spec.Edges ])
    [ "ctrl"; "int2float"; "router" ];
  Bench_json.write "cost" (List.rev !rows)

(* -------------------------------------------------------------------- *)
(* Cache: the persistent exact-synthesis store, cold vs warm.  The       *)
(* presets start from shipped tables and never miss, so the bench runs   *)
(* one rewrite pass per smoke benchmark under a config with no table     *)
(* (the AIG operator set, conflict budget 20k).  A cold phase populates  *)
(* the store; a warm phase reloads it in a fresh database and must       *)
(* re-synthesize nothing (misses = 0); a corrupt phase tears the store's *)
(* tail off and must still load with entries skipped, never fail; a     *)
(* healed phase reloads what its flush wrote and must skip nothing.  The *)
(* counters land in BENCH_cache.json (aggregate rows benchmark="all")    *)
(* and CI gates on them.                                                 *)
(* -------------------------------------------------------------------- *)

let cache_bench () =
  print_endline "=== Cache: persistent exact-synthesis store, cold vs warm ===";
  let store =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "genlog_bench_cache_%d.glxs" (Unix.getpid ()))
  in
  if Sys.file_exists store then Sys.remove store;
  let config = { Exact_synth.aig_config with Exact_synth.conflict_budget = 20_000 } in
  let module Rw = Rewrite.Make (Aig) in
  let benchmarks = [ "ctrl"; "cavlc"; "int2float"; "dec"; "router" ] in
  let rows = ref [] in
  Printf.printf "%-10s | %8s %8s %8s %8s %8s %8s\n" "stage" "hits" "misses"
    "classes" "loaded" "skipped" "time";
  let phase stage =
    let db = Database.create ~store config in
    let total = ref 0.0 in
    List.iter
      (fun name ->
        let net = Suite.build name in
        let (), seconds = time_it (fun () -> ignore (Rw.run net ~db ())) in
        total := !total +. seconds;
        rows :=
          row name stage
            [ ("nodes", Bench_json.Int (Aig.num_gates net));
              ("levels", Bench_json.Int (D.depth net));
              ("seconds", Bench_json.Float seconds) ]
          :: !rows)
      benchmarks;
    Database.flush db;
    let si = Database.store_info db in
    Printf.printf "%-10s | %8d %8d %8d %8d %8d %7.2fs\n%!" stage
      (Database.hits db) (Database.misses db) (Database.size db)
      si.Database.loaded si.Database.skipped !total;
    rows :=
      row "all" stage
        [ ("hits", Bench_json.Int (Database.hits db));
          ("misses", Bench_json.Int (Database.misses db));
          ("classes", Bench_json.Int (Database.size db));
          ("loaded", Bench_json.Int si.Database.loaded);
          ("skipped", Bench_json.Int si.Database.skipped);
          ("flushed", Bench_json.Int si.Database.flushed);
          ("seconds", Bench_json.Float !total) ]
      :: !rows;
    db
  in
  let _cold = phase "cold" in
  let warm_db = phase "warm" in
  (* tear the last few bytes off the store: the loader must skip the torn
     entry with a warning and keep everything before it *)
  let size = (Unix.stat store).Unix.st_size in
  Unix.truncate store (max 12 (size - 5));
  let _corrupt = phase "corrupt" in
  (* the corrupt phase re-synthesized the torn class, so its flush
     rewrote the store whole: a reload skips nothing and misses nothing *)
  let _healed = phase "healed" in
  Runmeta.set_cache (Database.obs_gauges warm_db);
  Bench_json.write "cache" (List.rev !rows);
  try Sys.remove store with Sys_error _ -> ()

(* -------------------------------------------------------------------- *)
(* Partition: sequential flow vs the partition-parallel engine on the    *)
(* largest suite members.  Reports wall time, QoR and the engine's       *)
(* accept/reject statistics.  Speedup over sequential depends on the     *)
(* host: on a single-core box the domain pool adds overhead instead of   *)
(* hiding latency — numbers are recorded as measured.                    *)
(* -------------------------------------------------------------------- *)

let partition_bench () =
  print_endline "=== Partition-parallel engine vs sequential flow ===";
  let module F = Flow.Make (Aig) in
  let module P = Flow.Partition.Make (Aig) in
  let module Copy = Convert.Make (Aig) (Aig) in
  let script = Script.compress_lite in
  let size_cap = 2000 in
  Printf.printf "script = %S, size_cap = %d\n" script size_cap;
  Printf.printf "%-12s %-14s | %8s %5s %8s | %5s %4s %5s %5s\n" "benchmark"
    "stage" "nodes" "lvl" "time" "parts" "acc" "rcost" "rcex";
  let rows = ref [] in
  List.iter
    (fun name ->
      let baseline = Suite.build name in
      (* a fresh env per run: no warm database favours either side *)
      let seq, t_seq =
        time_it (fun () ->
            F.run_script (Flow.make_env Run_config.Aig) (Copy.convert baseline)
              script)
      in
      Printf.printf "%-12s %-14s | %8d %5d %7.2fs |\n%!" name "sequential"
        (Aig.num_gates seq) (D.depth seq) t_seq;
      rows :=
        row name "sequential"
          [ ("nodes", Bench_json.Int (Aig.num_gates seq));
            ("levels", Bench_json.Int (D.depth seq));
            ("seconds", Bench_json.Float t_seq) ]
        :: !rows;
      List.iter
        (fun jobs ->
          let env = Flow.make_env Run_config.Aig in
          let (out, st), t_par =
            time_it (fun () ->
                P.run ~size_cap ~jobs ~script ~env (Copy.convert baseline))
          in
          let stage = Printf.sprintf "partition-j%d" jobs in
          Printf.printf
            "%-12s %-14s | %8d %5d %7.2fs | %5d %4d %5d %5d (speedup %.2fx)\n%!"
            name stage (Aig.num_gates out) (D.depth out) t_par st.P.partitions
            st.P.accepted st.P.rejected_cost st.P.rejected_cex (t_seq /. t_par);
          rows :=
            row name stage
              [ ("nodes", Bench_json.Int (Aig.num_gates out));
                ("levels", Bench_json.Int (D.depth out));
                ("seconds", Bench_json.Float t_par);
                ("partitions", Bench_json.Int st.P.partitions);
                ("accepted", Bench_json.Int st.P.accepted);
                ("rejected_cost", Bench_json.Int st.P.rejected_cost);
                ("rejected_cex", Bench_json.Int st.P.rejected_cex);
                ("speedup", Bench_json.Float (t_seq /. t_par)) ]
            :: !rows)
        [ 1; 2; 4 ])
    [ "div"; "mem_ctrl" ];
  print_newline ();
  Bench_json.write "partition" (List.rev !rows)

(* -------------------------------------------------------------------- *)
(* Sat: the CDCL kernel on CEC miters.  Each smoke benchmark is          *)
(* optimized with compress2rs and mitered against its own baseline — an  *)
(* UNSAT instance whose difficulty comes from the structural divergence  *)
(* the flow introduced.  Each check sweeps the miter and gives the open  *)
(* outputs one unbounded solve, in the stage [modern] (the name the      *)
(* committed rows have always used).  The whole-network [div] check      *)
(* (against its "rw; bz" result) climbs a two-rung ladder and must end   *)
(* EQUIVALENT.                                                           *)
(* -------------------------------------------------------------------- *)

let sat_bench () =
  print_endline "=== SAT kernel: CDCL on CEC miters ===";
  let module F = Flow.Make (Aig) in
  let module C = Cec.Make (Aig) (Aig) in
  let module Copy = Convert.Make (Aig) (Aig) in
  let rows = ref [] in
  Printf.printf "%-12s %-14s | %10s %9s %6s %s\n" "benchmark" "kernel"
    "conflicts" "time" "rungs" "result";
  let result_str = function
    | Cec.Equivalent -> "equivalent"
    | Cec.Counterexample _ -> "counterexample"
    | Cec.Unknown -> "unknown"
  in
  let stage name stage_name ((r, rep) : Cec.result * C.report) seconds =
    Printf.printf "%-12s %-14s | %10d %8.3fs %6d %s\n%!" name stage_name
      rep.C.conflicts seconds rep.C.rungs_used (result_str r);
    rows :=
      row name stage_name
        [ ("seconds", Bench_json.Float seconds);
          ("conflicts", Bench_json.Int rep.C.conflicts);
          ("rungs", Bench_json.Int rep.C.rungs_used);
          ("winner", Bench_json.Str rep.C.winner);
          ("result", Bench_json.Str (result_str r)) ]
      :: !rows
  in
  let env = Flow.make_env Run_config.Aig in
  let env_mig = Flow.make_env Run_config.Mig in
  let module Fm = Flow.Make (Mig) in
  let module To_mig = Convert.Make (Aig) (Mig) in
  let module From_mig = Convert.Make (Mig) (Aig) in
  (* two miters per benchmark: against the AIG-optimized copy (mild
     structural divergence) and against a MIG-optimized round trip (deep
     divergence — majority gates re-decomposed into ANDs share almost no
     structure with the original, which is where the kernel earns its
     keep) *)
  let instances =
    List.concat_map
      (fun name ->
        let baseline = Suite.build name in
        let optimized =
          F.run_script env (Copy.convert baseline) Script.compress2rs
        in
        let roundtrip =
          From_mig.convert
            (Fm.run_script env_mig (To_mig.convert baseline) Script.compress2rs)
        in
        [ (name, baseline, optimized); (name ^ "-mig", baseline, roundtrip) ])
      [ "ctrl"; "cavlc"; "int2float"; "dec"; "router" ]
  in
  (* commuted multipliers: a*b against b*a shares no structure, the
     classically hard UNSAT CEC family — this is where learnt-clause
     minimization, tiered deletion and inprocessing pay for themselves *)
  let module Bl = Blocks.Make (Aig) in
  let commuted width =
    let mult swap =
      let t = Aig.create () in
      let a = Bl.input_word t ~width and b = Bl.input_word t ~width in
      Bl.output_word t (if swap then Bl.multiplier t b a else Bl.multiplier t a b);
      t
    in
    (Printf.sprintf "mult%d-comm" width, mult false, mult true)
  in
  let instances = instances @ [ commuted 7; commuted 8 ] in
  List.iter
    (fun (name, a, b) ->
      (* equivalent by construction: the miter is UNSAT; [~ladder:[]] asks
         for a single unbounded attempt *)
      let r, t = time_it (fun () -> C.check_full ~ladder:[] a b) in
      stage name "modern" r t)
    instances;
  let div = Suite.build "div" in
  let opt_div = F.run_script env (Copy.convert div) "rw; bz" in
  let r, t =
    time_it (fun () -> C.check_full ~ladder:[ 10_000; 100_000 ] div opt_div)
  in
  stage "div" "modern-ladder" r t;
  print_newline ();
  Bench_json.write "sat" (List.rev !rows)

(* -------------------------------------------------------------------- *)
(* Microbenchmarks (Bechamel): the scalability kernels of paper §2.2.    *)
(* -------------------------------------------------------------------- *)

let micro () =
  print_endline "=== Microbenchmarks (paper §2.2 kernels) ===";
  let open Bechamel in
  let net = Suite.build "priority" in
  let module Cuts_a = Cuts.Make (Aig) in
  let module Sim_a = Simulate.Make (Aig) in
  let module Reconv_a = Reconv.Make (Aig) in
  let module Window_a = Window.Make (Aig) in
  let module Mffc_a = Mffc.Make (Aig) in
  let rng = Random.State.make [| 17 |] in
  (* two 64-word tables with random bits *)
  let random_tt () =
    let f = Tt.create 12 in
    for m = 0 to 4095 do
      if Random.State.bool rng then Tt.set_bit f m
    done;
    f
  in
  let tt_a = random_tt () and tt_b = random_tt () in
  let some_gates =
    let gates = ref [] in
    Aig.foreach_gate net (fun n -> gates := n :: !gates);
    let arr = Array.of_list !gates in
    Array.init 64 (fun _ -> arr.(Random.State.int rng (Array.length arr)))
  in
  (* cut functions in the width mix rewriting meets on warm_arith (about
     6 : 9 : 9 two-, three- and four-leaf cuts) *)
  let cut_mix =
    Array.concat
      (List.map
         (fun (n, count) ->
           Array.init count (fun _ ->
               Kitty.Tt.of_int64 n
                 (Int64.of_int (Random.State.int rng (1 lsl (1 lsl n))))))
         [ (2, 6); (3, 9); (4, 9) ])
  in
  let tests =
    [
      Test.make ~name:"cut-enumeration(k=4, priority)"
        (Staged.stage (fun () -> ignore (Cuts_a.enumerate net ~k:4 ~cut_limit:8 ())));
      Test.make ~name:"cut-enumeration(k=6, priority)"
        (Staged.stage (fun () -> ignore (Cuts_a.enumerate net ~k:6 ~cut_limit:8 ())));
      Test.make ~name:"specialized-cuts(k=4, aig)"
        (Staged.stage (fun () -> ignore (Rewrite_aig.enumerate net ~cut_limit:8)));
      Test.make ~name:"full-simulation(64 pats)"
        (Staged.stage (fun () ->
             ignore (Sim_a.simulate net (Sim_a.random_values ~num_vars:6 ~seed:3 net))));
      Test.make ~name:"reconv-cut(64 roots)"
        (Staged.stage (fun () ->
             Array.iter
               (fun n -> ignore (Reconv_a.compute net ~max_leaves:8 n))
               some_gates));
      Test.make ~name:"tt-ops(12 vars)"
        (Staged.stage (fun () ->
             ignore (Tt.equal Tt.(tt_a &: tt_b) Tt.(~:(tt_a |: tt_b)))));
      (* the per-node work of resubstitution before its kernels run *)
      Test.make ~name:"resub-window(64 roots, 8 leaves)"
        (Staged.stage (fun () ->
             Array.iter
               (fun n ->
                 let leaves = Reconv_a.compute net ~max_leaves:8 n in
                 let w = Window_a.of_cut net n leaves in
                 let mffc = Mffc_a.collect net n in
                 let divs = Window_a.divisors net w ~mffc ~max:24 in
                 let values = Window_a.simulate net w in
                 Window_a.simulate_divisors net values divs)
               some_gates));
      Test.make ~name:"npn-canonize(128 fns, cached)"
        (Staged.stage (fun () ->
             for v = 4096 to 4223 do
               ignore (Kitty.Npn.canonize (Kitty.Tt.of_int64 4 (Int64.of_int v)))
             done));
      Test.make ~name:"npn-canonize(cut mix)"
        (Staged.stage (fun () ->
             Array.iter (fun f -> ignore (Kitty.Npn.canonize f)) cut_mix));
    ]
  in
  let rows = ref [] in
  List.iter
    (fun test ->
      let instance = Toolkit.Instance.monotonic_clock in
      let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
      let raw = Benchmark.all cfg [ instance ] test in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          instance raw
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
            Printf.printf "%-36s %14.0f ns/run\n" name est;
            rows :=
              row "priority" name
                [ ("nodes", Bench_json.Int (Aig.num_gates net));
                  ("seconds", Bench_json.Float (est *. 1e-9)) ]
              :: !rows
          | Some _ | None -> Printf.printf "%-36s (no estimate)\n" name)
        results)
    tests;
  print_newline ();
  Bench_json.write "micro" (List.rev !rows)

(* -------------------------------------------------------------------- *)
(* Cuts: dedicated sweep of the cut-enumeration kernel across suite      *)
(* sizes — the perf trail for the signature-accelerated priority-cut     *)
(* engine (see EXPERIMENTS.md, "Cut kernel").                            *)
(* -------------------------------------------------------------------- *)

let cuts_bench () =
  print_endline "=== Cut-enumeration kernel sweep ===";
  let module Cuts_a = Cuts.Make (Aig) in
  Printf.printf "%-12s %8s | %4s %10s %10s %10s\n" "benchmark" "nodes" "k"
    "cuts" "ms/enum" "cuts/s";
  let rows = ref [] in
  List.iter
    (fun name ->
      let net = Suite.build name in
      let nodes = Aig.num_gates net in
      let iters = if nodes > 2000 then 3 else 10 in
      List.iter
        (fun k ->
          (* warm-up enumeration also gives us the cut count *)
          let r = Cuts_a.enumerate net ~k ~cut_limit:8 () in
          let num_cuts = ref 0 in
          Aig.foreach_gate net (fun n ->
              num_cuts := !num_cuts + Array.length (Cuts_a.cuts_array r n));
          let num_cuts = !num_cuts in
          let _, t =
            time_it (fun () ->
                for _ = 1 to iters do
                  ignore (Cuts_a.enumerate net ~k ~cut_limit:8 ())
                done)
          in
          let per = t /. float_of_int iters in
          Printf.printf "%-12s %8d | %4d %10d %10.2f %10.0f\n%!" name nodes k
            num_cuts (per *. 1e3)
            (float_of_int num_cuts /. per);
          rows :=
            row name (Printf.sprintf "k%d" k)
              [ ("nodes", Bench_json.Int nodes);
                ("cuts", Bench_json.Int num_cuts);
                ("seconds", Bench_json.Float per) ]
            :: !rows)
        [ 4; 6 ])
    [ "adder"; "priority"; "sin"; "multiplier"; "voter" ];
  print_newline ();
  Bench_json.write "cuts" (List.rev !rows)

(* -------------------------------------------------------------------- *)
(* Ablations: the design choices DESIGN.md calls out.                    *)
(* -------------------------------------------------------------------- *)

let ablation () =
  print_endline "=== Ablations ===";
  let module F = Flow.Make (Aig) in
  let bench_subset = [ "adder"; "int2float"; "priority"; "sin"; "cavlc" ] in
  let total f =
    List.fold_left (fun acc name -> acc + f (Suite.build name)) 0 bench_subset
  in
  let rows = ref [] in
  let ab ?(benchmark = "subset") stage fields =
    rows := row benchmark stage fields :: !rows
  in
  (* 1: rewriting database vs factored-form fallback only *)
  let env = Flow.make_env Run_config.Aig in
  let with_db = total (fun t -> Aig.num_gates (F.run_script env t "rw; rw")) in
  let no_db_env =
    {
      env with
      Flow.db =
        Database.create { Exact_synth.aig_config with Exact_synth.max_gates = 0 };
    }
  in
  let without_db =
    total (fun t -> Aig.num_gates (F.run_script no_db_env t "rw; rw"))
  in
  Printf.printf
    "rewrite: exact-synthesis db %d gates vs factored fallback %d gates\n"
    with_db without_db;
  ab "rewrite-db" [ ("nodes", Bench_json.Int with_db) ];
  ab "rewrite-factored" [ ("nodes", Bench_json.Int without_db) ];
  (* 2: resubstitution with and without 2-resub *)
  let module Rs = Resub.Make (Aig) in
  let resub_total max_inserted =
    total (fun t ->
        ignore (Rs.run t ~kernel:Resub.And_or ~max_leaves:10 ~max_inserted ());
        Aig.num_gates t)
  in
  let rs1 = resub_total 1 and rs2 = resub_total 2 in
  Printf.printf "resub: k<=1 -> %d gates, k<=2 -> %d gates\n" rs1 rs2;
  ab "resub-k1" [ ("nodes", Bench_json.Int rs1) ];
  ab "resub-k2" [ ("nodes", Bench_json.Int rs2) ];
  (* 3: LUT mapping with and without area recovery *)
  let lut_total iters =
    total (fun t ->
        let m = L.map t ~k:6 ~area_iterations:iters () in
        m.L.lut_count)
  in
  let lm0 = lut_total 0 and lm2 = lut_total 2 in
  Printf.printf "lutmap: no area recovery %d LUTs, 2 area passes %d LUTs\n" lm0
    lm2;
  ab "lutmap-area0" [ ("luts", Bench_json.Int lm0) ];
  ab "lutmap-area2" [ ("luts", Bench_json.Int lm2) ];
  (* 4: balancing inside the flow *)
  let env2 = Flow.make_env Run_config.Aig in
  let with_bal =
    total (fun t -> Aig.num_gates (F.run_script env2 t "bz; rw; rs -c 8; bz"))
  in
  let without_bal =
    total (fun t -> Aig.num_gates (F.run_script env2 t "rw; rs -c 8"))
  in
  Printf.printf "flow: with balancing %d gates, without %d gates\n" with_bal
    without_bal;
  ab "flow-balanced" [ ("nodes", Bench_json.Int with_bal) ];
  ab "flow-unbalanced" [ ("nodes", Bench_json.Int without_bal) ];
  (* 5: MIG rewriting with native MAJ exact synthesis vs AIG-database
     conversion (the containment remark of paper §2.3.3) *)
  let module Fm = Flow.Make (Mig) in
  let module To_mig = Convert.Make (Aig) (Mig) in
  let mig_total env =
    List.fold_left
      (fun acc name ->
        let t = To_mig.convert (Suite.build name) in
        acc + Mig.num_gates (Fm.run_script env t "rw; rw"))
      0 bench_subset
  in
  let native = mig_total (Flow.make_env Run_config.Mig) in
  let via_aig =
    mig_total
      {
        (Flow.make_env Run_config.Mig) with
        Flow.db = Database.create Exact_synth.aig_config;
      }
  in
  Printf.printf
    "mig rewrite: native MAJ3 db %d gates vs AIG-db conversion %d gates\n"
    native via_aig;
  ab "mig-native-db" [ ("nodes", Bench_json.Int native) ];
  ab "mig-aig-db" [ ("nodes", Bench_json.Int via_aig) ];
  (* 6: exact synthesis of every 3-input function (time per class) *)
  let t0 = Unix.gettimeofday () in
  for v = 0 to 255 do
    ignore
      (Exact_synth.synthesize Exact_synth.aig_config
         (Tt.of_int64 3 (Int64.of_int v)))
  done;
  let t_inc = Unix.gettimeofday () -. t0 in
  Printf.printf "exact synthesis of all 256 3-var functions: %.2fs\n" t_inc;
  ab "exact-incremental" [ ("seconds", Bench_json.Float t_inc) ];
  (* 7: MIG algebraic depth rewriting on the carry-chain benchmarks *)
  let module Dm = Depth.Make (Mig) in
  let module Sm = Suite_gen.Make (Mig) in
  List.iter
    (fun name ->
      let t = Sm.build name in
      let before = Dm.depth t in
      let g = Mig.num_gates t in
      let _ = Mig_algebraic.run t ~size_budget:g () in
      Printf.printf "mig algebraic depth (%s): %d -> %d levels (gates %d -> %d)\n"
        name before (Dm.depth t) g (Mig.num_gates t);
      ab ~benchmark:name "mig-algebraic"
        [ ("levels", Bench_json.Int (Dm.depth t));
          ("nodes", Bench_json.Int (Mig.num_gates t)) ])
    [ "adder"; "voter" ];
  print_newline ();
  Bench_json.write "ablation" (List.rev !rows)

(* -------------------------------------------------------------------- *)
(* Tables: regenerate the shipped 4-input NPN tables (lib/exact/tables). *)
(* Every canonical class of 0..4 variables is synthesized with the call  *)
(* a database miss makes and written in sorted order, so two runs give   *)
(* the same bytes.                                                       *)
(*                                                                       *)
(*   dune exec bench/main.exe tables [DIR]                               *)
(* -------------------------------------------------------------------- *)

let tables_bench dir =
  let classes, t_canon = time_it Exact_tables.classes in
  Printf.printf "%d NPN classes of 0..%d variables (canonized in %.1fs)\n%!"
    (List.length classes) Exact_tables.max_vars t_canon;
  List.iter
    (fun (name, rep) ->
      let module R = (val Flow.representation rep) in
      let config = R.synth in
      let entries, seconds =
        time_it (fun () ->
            List.map
              (fun c ->
                { Exact_store.num_vars = Tt.num_vars c; key = Tt.to_hex c;
                  result = Exact_synth.synthesize config c })
              classes)
      in
      let path = Filename.concat dir (name ^ ".glxs") in
      Exact_store.write ~config path entries;
      let failed =
        List.length
          (List.filter (fun e -> e.Exact_store.result = Exact_synth.Failed) entries)
      in
      Printf.printf "%s: %d classes, %d failed, %.1fs -> %s (%d bytes)\n%!" name
        (List.length entries) failed seconds path (Unix.stat path).Unix.st_size)
    Run_config.representations

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match what with
  | "table1" -> table1 ()
  | "table2" -> table2 ()
  | "micro" -> micro ()
  | "cuts" -> cuts_bench ()
  | "ablation" -> ablation ()
  | "partition" -> partition_bench ()
  | "sat" -> sat_bench ()
  | "cache" -> cache_bench ()
  | "cost" -> cost_bench ()
  | "tables" ->
    tables_bench
      (if Array.length Sys.argv > 2 then Sys.argv.(2) else "lib/exact/tables")
  | "all" ->
    micro ();
    cuts_bench ();
    table1 ();
    table2 ();
    ablation ();
    partition_bench ();
    sat_bench ();
    cache_bench ()
  | other ->
    Printf.eprintf
      "unknown bench target %s \
       (table1|table2|micro|cuts|ablation|partition|sat|cache|cost|tables|all)\n"
      other;
    exit 1
