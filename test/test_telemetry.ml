(* Tests for the solver-depth telemetry layer: Solver snapshot
   monotonicity under both kernels, per-pass SAT aggregation in
   Trace.summarize, and exact-synthesis telemetry counters. *)

module T = Obs.Trace
module Solver = Satkit.Solver

let lit v neg = Satkit.Lit.of_var v ~negated:neg

(* php(n+1, n): UNSAT with real conflict-driven search, so every counter
   the snapshot tracks actually moves. *)
let add_php s n =
  let var p h = (p * n) + h in
  for p = 0 to n do
    Solver.add_clause s (List.init n (fun h -> lit (var p h) false))
  done;
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        Solver.add_clause s [ lit (var p1 h) true; lit (var p2 h) true ]
      done
    done
  done

(* -- snapshot monotonicity, both kernels -- *)

let monotone_fields (a : Solver.snapshot) (b : Solver.snapshot) =
  [
    ("learned_total", a.Solver.s_learned_total, b.Solver.s_learned_total);
    ("conflicts", a.Solver.s_conflicts, b.Solver.s_conflicts);
    ("decisions", a.Solver.s_decisions, b.Solver.s_decisions);
    ("propagations", a.Solver.s_propagations, b.Solver.s_propagations);
    ("restarts", a.Solver.s_restarts, b.Solver.s_restarts);
    ("reduces", a.Solver.s_reduces, b.Solver.s_reduces);
    ("inprocess_rounds", a.Solver.s_inprocess_rounds, b.Solver.s_inprocess_rounds);
    ("minimized_lits", a.Solver.s_minimized_lits, b.Solver.s_minimized_lits);
    ("subsumed", a.Solver.s_subsumed, b.Solver.s_subsumed);
    ("strengthened", a.Solver.s_strengthened, b.Solver.s_strengthened);
    ("vivified", a.Solver.s_vivified, b.Solver.s_vivified);
  ]

let check_snapshot_monotone config name =
  let s = Solver.create ~config () in
  add_php s 6;
  let s0 = Solver.snapshot s in
  (* fresh solver: every counter starts at zero *)
  List.iter
    (fun (k, v, _) ->
      Alcotest.(check int) (name ^ ": " ^ k ^ " starts at 0") 0 v)
    (monotone_fields s0 s0);
  Alcotest.(check bool)
    (name ^ ": unsat") true
    (Solver.solve s = Solver.Unsat);
  let s1 = Solver.snapshot s in
  List.iter
    (fun (k, before, after) ->
      Alcotest.(check bool)
        (name ^ ": " ^ k ^ " monotone")
        true (after >= before))
    (monotone_fields s0 s1);
  Alcotest.(check bool)
    (name ^ ": search happened") true
    (s1.Solver.s_conflicts > 0 && s1.Solver.s_propagations > 0
    && s1.Solver.s_decisions > 0);
  (* the learn-time LBD histogram accounts for every learnt clause *)
  Alcotest.(check int)
    (name ^ ": lbd histogram sums to learned_total")
    s1.Solver.s_learned_total
    (Array.fold_left ( + ) 0 s1.Solver.s_lbd);
  (* diff against the zero snapshot is the snapshot itself (counters) *)
  let d = Solver.diff_snapshot s0 s1 in
  Alcotest.(check int)
    (name ^ ": diff conflicts")
    s1.Solver.s_conflicts d.Solver.s_conflicts;
  (* stats_of_snapshot exposes the counters under stable labels *)
  let labels = List.map fst (Solver.stats_of_snapshot s1) in
  List.iter
    (fun k ->
      Alcotest.(check bool) (name ^ ": stats carries " ^ k) true
        (List.mem k labels))
    [ "conflicts"; "propagations"; "learned_total"; "lbd_glue"; "lbd_mid";
      "lbd_high" ];
  s1

let test_snapshot_modern () =
  ignore (check_snapshot_monotone Solver.default_config "modern")

(* the over-eager cadence makes reductions and inprocessing fire on php(6),
   so their counters are covered too *)
let test_snapshot_small_intervals () =
  let s1 =
    check_snapshot_monotone Test_satkit.small_intervals "small intervals"
  in
  Alcotest.(check bool) "reductions fired" true (s1.Solver.s_reduces > 0);
  Alcotest.(check bool) "inprocessing fired" true
    (s1.Solver.s_inprocess_rounds > 0)

(* -- per-pass SAT aggregation by summarize -- *)

(* Hand-built event stream: solver_* keys from child flows must fold into
   the nearest open ancestor span. *)
let test_summarize_sat_attribution () =
  let events =
    [
      T.Pass_begin { t = 0.0; flow = "opt"; pass = "rw"; index = 0; gates = 10; depth = 3 };
      (* single-solver telemetry: solver_* keys of a counters event,
         emitted from a child flow of the open span *)
      T.Counters
        {
          t = 0.1; flow = "opt/part1"; algo = "cec";
          counters = [ ("solver_conflicts", 5); ("solver_propagations", 100) ];
        };
      T.Pass_end
        {
          t = 0.3; flow = "opt"; pass = "rw"; index = 0; gates = 8; depth = 3;
          elapsed = 0.3; gc = T.gc_zero;
        };
    ]
  in
  match T.summarize (T.of_events events) with
  | [ row ] ->
    Alcotest.(check int) "conflicts attributed" 5 row.T.row_sat_conflicts;
    Alcotest.(check int) "propagations attributed" 100
      row.T.row_sat_propagations
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

(* A counters event from a worker flow ("opt/w0") with no open span of its
   own lands in the parent's open span: its plain keys join the row's
   counters column, its solver_* keys the row's SAT totals. *)
let test_child_counters_attribution () =
  let events =
    [
      T.Pass_begin { t = 0.0; flow = "opt"; pass = "fraig"; index = 0; gates = 10; depth = 3 };
      T.Counters
        {
          t = 0.1; flow = "opt/w0"; algo = "cec";
          counters =
            [ ("conflicts", 4); ("solver_conflicts", 7);
              ("solver_propagations", 40) ];
        };
      T.Pass_end
        {
          t = 0.3; flow = "opt"; pass = "fraig"; index = 0; gates = 9;
          depth = 3; elapsed = 0.3; gc = T.gc_zero;
        };
    ]
  in
  match T.summarize (T.of_events events) with
  | [ row ] ->
    Alcotest.(check string) "parent row" "opt" row.T.row_flow;
    Alcotest.(check (list (pair string (list (pair string int)))))
      "solver keys left out of the counters column"
      [ ("cec", [ ("conflicts", 4) ]) ]
      row.T.row_counters;
    Alcotest.(check int) "conflicts attributed" 7 row.T.row_sat_conflicts;
    Alcotest.(check int) "propagations attributed" 40
      row.T.row_sat_propagations
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

(* Traces written before counters became the only event for an
   algorithm's numbers hold {"event":"metrics",...} lines with separate
   counters and gauges.  Such a line reads as the counters event holding
   both, so it summarizes exactly like its rewrite. *)
let test_old_metrics_line () =
  let span body =
    [
      {|{"event":"pass_begin","t":0.1,"flow":"opt","pass":"fraig","index":0,"gates":10,"depth":3}|};
      body;
      {|{"event":"pass_end","t":0.3,"flow":"opt","pass":"fraig","index":0,"gates":8,"depth":3,"elapsed":0.2}|};
    ]
  in
  let load lines =
    let path = Filename.temp_file "trace" ".jsonl" in
    Out_channel.with_open_text path (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines);
    let trace = T.read_file path in
    Sys.remove path;
    trace
  in
  let t_old =
    load
      (span
         {|{"event":"metrics","t":0.2,"flow":"opt","algo":"fraig","counters":{"sat_ns":9},"gauges":{"solver_conflicts":11,"solver_propagations":30}}|})
  and t_new =
    load
      (span
         {|{"event":"counters","t":0.2,"flow":"opt","algo":"fraig","counters":{"sat_ns":9,"solver_conflicts":11,"solver_propagations":30}}|})
  in
  Alcotest.(check bool) "same rows" true (T.summarize t_old = T.summarize t_new);
  match T.summarize t_old with
  | [ row ] ->
    Alcotest.(check (list (pair string (list (pair string int)))))
      "counters column" [ ("fraig", [ ("sat_ns", 9) ]) ] row.T.row_counters;
    Alcotest.(check int) "conflicts attributed" 11 row.T.row_sat_conflicts;
    Alcotest.(check int) "propagations attributed" 30
      row.T.row_sat_propagations
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

(* Traces written before the SAT portfolio was removed may hold
   {"event":"race",...} lines.  [Trace.read_file] skips them, and the
   summary equals the one of the same file without that line. *)
let test_old_race_line_ignored () =
  let trace = T.create ~flow:"opt" () in
  T.pass_begin trace ~pass:"rw" ~index:0 ~gates:10 ~depth:3;
  T.report trace ~algo:"cec"
    [ ("solver_conflicts", 5); ("solver_propagations", 100) ];
  T.pass_end trace ~pass:"rw" ~index:0 ~gates:8 ~depth:3 ~elapsed:0.3 ();
  let plain = Filename.temp_file "plain" ".jsonl" in
  T.write_file trace plain;
  let lines =
    In_channel.with_open_text plain In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  (* the race line goes just before pass_end, inside the open span *)
  let race =
    "{\"event\":\"race\",\"t\":0.2,\"flow\":\"opt\",\"algo\":\"exact\",\
     \"winner\":\"luby\",\"configs\":[{\"name\":\"luby\",\"result\":\"unsat\",\
     \"counters\":{\"conflicts\":7,\"propagations\":50}}]}"
  in
  let n = List.length lines in
  let with_race =
    List.concat (List.mapi (fun i l -> if i = n - 1 then [ race; l ] else [ l ]) lines)
  in
  let old = Filename.temp_file "old" ".jsonl" in
  Out_channel.with_open_text old (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) with_race);
  let t_plain = Obs.Trace.read_file plain in
  let t_old = Obs.Trace.read_file old in
  Sys.remove plain;
  Sys.remove old;
  Alcotest.(check int) "race line dropped"
    (List.length (T.events t_plain))
    (List.length (T.events t_old));
  Alcotest.(check bool) "same rows" true
    (T.summarize t_plain = T.summarize t_old);
  match T.summarize t_old with
  | [ row ] ->
    Alcotest.(check int) "race work not attributed" 5 row.T.row_sat_conflicts
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

(* Traces written while the schema still carried log2 histograms, sampled
   node events and five GC fields per span hold a {"event":"node",...}
   line, a "hists" object on metrics lines and three extra "gc" keys.
   [Trace.read_file] ignores all of them: the summary rows and the Chrome
   export equal those of the same file with those lines and keys
   removed. *)
let test_old_histogram_node_gc_ignored () =
  let old_lines =
    [
      {|{"event":"meta","schema":2}|};
      {|{"event":"pass_begin","t":0.1,"flow":"opt","pass":"rw","index":0,"gates":10,"depth":3}|};
      {|{"event":"node","t":0.15,"flow":"opt","algo":"rewrite","node":7,"gain":2,"accepted":true}|};
      {|{"event":"counters","t":0.2,"flow":"opt","algo":"rewrite","counters":{"tried":5,"accepted":1}}|};
      {|{"event":"metrics","t":0.21,"flow":"opt","algo":"fraig","counters":{},"gauges":{"solver_conflicts":11},"hists":{"sat_ns":{"count":3,"sum":9,"min":1,"max":5,"buckets":{"1":1,"2":1,"3":1}}}}|};
      {|{"event":"pass_end","t":0.3,"flow":"opt","pass":"rw","index":0,"gates":8,"depth":3,"elapsed":0.2,"gc":{"minor_words":1234,"major_words":56,"promoted_words":7,"minor_collections":3,"major_collections":1}}|};
    ]
  and new_lines =
    [
      {|{"event":"meta","schema":2}|};
      {|{"event":"pass_begin","t":0.1,"flow":"opt","pass":"rw","index":0,"gates":10,"depth":3}|};
      {|{"event":"counters","t":0.2,"flow":"opt","algo":"rewrite","counters":{"tried":5,"accepted":1}}|};
      {|{"event":"metrics","t":0.21,"flow":"opt","algo":"fraig","counters":{},"gauges":{"solver_conflicts":11}}|};
      {|{"event":"pass_end","t":0.3,"flow":"opt","pass":"rw","index":0,"gates":8,"depth":3,"elapsed":0.2,"gc":{"minor_words":1234,"major_words":56}}|};
    ]
  in
  let load lines =
    let path = Filename.temp_file "trace" ".jsonl" in
    Out_channel.with_open_text path (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines);
    let trace = T.read_file path in
    Sys.remove path;
    trace
  in
  let t_old = load old_lines and t_new = load new_lines in
  Alcotest.(check bool) "same rows" true (T.summarize t_old = T.summarize t_new);
  Alcotest.(check string) "same chrome export" (Obs.Chrome.to_string t_new)
    (Obs.Chrome.to_string t_old);
  match T.summarize t_old with
  | [ row ] ->
    Alcotest.(check int) "gauges kept" 11 row.T.row_sat_conflicts;
    Alcotest.(check (float 0.0)) "gc kept" 56.0 row.T.row_gc.T.major_words
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

(* Empty / meta-only traces degrade to a clean message, not a table. *)
let test_empty_trace_graceful () =
  let str pp v = Format.asprintf "%a" pp v in
  let empty = T.of_events [] in
  Alcotest.(check string) "pp_summary empty" "trace: no spans recorded\n"
    (str T.pp_summary empty);
  (* a real file holding only the meta line parses to zero events *)
  let path = Filename.temp_file "meta" ".jsonl" in
  T.write_file empty path;
  let parsed = Obs.Trace.read_file path in
  Sys.remove path;
  Alcotest.(check int) "meta-only file has no events" 0
    (List.length (T.events parsed))

(* -- exact synthesis telemetry -- *)

let test_exact_telemetry () =
  Exact.Synth.reset_telemetry ();
  let get k l = match List.assoc_opt k l with Some v -> v | None -> -1 in
  let before = Exact.Synth.telemetry () in
  Alcotest.(check int) "calls reset" 0 (get "calls" before);
  (* a 2-input XOR needs 3 AND gates: several SAT calls, some UNSAT *)
  let f = Kitty.Tt.of_hex 2 "6" in
  (match Exact.Synth.(synthesize aig_config f) with
  | Exact.Synth.Chain _ -> ()
  | _ -> Alcotest.fail "xor2 must synthesize as a chain");
  let after = Exact.Synth.telemetry () in
  Alcotest.(check bool) "calls counted" true (get "calls" after > 0);
  Alcotest.(check bool) "sat+unsat+unknown = calls" true
    (get "sat" after + get "unsat" after + get "unknown" after
    = get "calls" after);
  Alcotest.(check bool) "propagations counted" true
    (get "solver_propagations" after > 0)

let suite =
  [
    Alcotest.test_case "snapshot monotone (modern kernel)" `Quick
      test_snapshot_modern;
    Alcotest.test_case "snapshot monotone (small intervals)" `Quick
      test_snapshot_small_intervals;
    Alcotest.test_case "summarize attributes SAT work to spans" `Quick
      test_summarize_sat_attribution;
    Alcotest.test_case "child-flow counters land in the parent span" `Quick
      test_child_counters_attribution;
    Alcotest.test_case "old metrics line reads as counters" `Quick
      test_old_metrics_line;
    Alcotest.test_case "old race event line is ignored" `Quick
      test_old_race_line_ignored;
    Alcotest.test_case "old histogram, node and gc keys are ignored" `Quick
      test_old_histogram_node_gc_ignored;
    Alcotest.test_case "empty trace renders gracefully" `Quick
      test_empty_trace_graceful;
    Alcotest.test_case "exact synthesis telemetry counters" `Quick
      test_exact_telemetry;
  ]
