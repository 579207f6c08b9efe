(* Tests for the solver-depth telemetry layer and the cross-run history:
   Solver snapshot monotonicity under both kernels, per-pass SAT
   aggregation in Trace.summarize, history
   append/rolling-median/regression logic, and the HTML dashboard's
   golden structure. *)

module T = Obs.Trace
module H = Obs.History
module J = Obs.Json
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
      "lbd_high" ]

let test_snapshot_modern () =
  check_snapshot_monotone Solver.default_config "modern"

let test_snapshot_legacy () =
  check_snapshot_monotone Solver.legacy_config "legacy"

(* -- per-pass SAT aggregation by summarize -- *)

(* Hand-built event stream: gauges from child flows must fold into the
   nearest open ancestor span. *)
let test_summarize_sat_attribution () =
  let events =
    [
      T.Pass_begin { t = 0.0; flow = "opt"; pass = "rw"; index = 0; gates = 10; depth = 3 };
      (* single-solver telemetry: solver_* gauges through a metrics event,
         emitted from a child flow of the open span *)
      T.Metrics
        {
          t = 0.1; flow = "opt/part1"; algo = "cec"; counters = [];
          gauges = [ ("solver_conflicts", 5); ("solver_propagations", 100) ];
          hists = [];
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

(* Traces written before the SAT portfolio was removed may hold
   {"event":"race",...} lines.  [load_trace] skips them, and the summary
   equals the one of the same file without that line. *)
let test_old_race_line_ignored () =
  let trace = T.create ~flow:"opt" () in
  T.pass_begin trace ~pass:"rw" ~index:0 ~gates:10 ~depth:3;
  T.metrics trace ~algo:"cec" ~counters:[]
    ~gauges:[ ("solver_conflicts", 5); ("solver_propagations", 100) ]
    ~hists:[];
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
  let t_plain = Obs.Report.load_trace plain in
  let t_old = Obs.Report.load_trace old in
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

(* Empty / meta-only traces degrade to a clean message, not a table. *)
let test_empty_trace_graceful () =
  let str pp v = Format.asprintf "%a" pp v in
  let empty = T.of_events [] in
  Alcotest.(check string) "pp_summary empty" "trace: no spans recorded\n"
    (str T.pp_summary empty);
  Alcotest.(check string) "pp_trace empty"
    "trace: no spans recorded (empty or meta-only file)\n"
    (str Obs.Report.pp_trace empty);
  (* a real file holding only the meta line parses to zero events *)
  let path = Filename.temp_file "meta" ".jsonl" in
  T.write_file empty path;
  let parsed = Obs.Report.load_trace path in
  Sys.remove path;
  Alcotest.(check int) "meta-only file has no events" 0
    (List.length (T.events parsed))

(* -- exact synthesis telemetry -- *)

let test_exact_telemetry () =
  Exact.Synth.reset_telemetry ();
  let t0 = H.median [] in
  ignore t0;
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

(* -- history: append / load / rolling median / regression flag -- *)

let bench_payload ~seconds ~nodes ~commit ~at =
  J.parse
    (Printf.sprintf
       "{\"bench\":\"smoke\",\"schema\":2,\"git_commit\":\"%s\",\
        \"generated_unix\":%d,\"rows\":[{\"benchmark\":\"voter\",\
        \"stage\":\"generic\",\"nodes\":%d,\"seconds\":%f}]}"
       commit at nodes seconds)

let test_history_roundtrip () =
  let path = Filename.temp_file "hist" ".jsonl" in
  Sys.remove path;
  H.append ~path (bench_payload ~seconds:1.0 ~nodes:100 ~commit:"aaa" ~at:1);
  H.append ~path (bench_payload ~seconds:1.1 ~nodes:100 ~commit:"bbb" ~at:2);
  (* a corrupt line must be skipped, not fatal *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{corrupt\n";
  close_out oc;
  H.append ~path (bench_payload ~seconds:0.9 ~nodes:100 ~commit:"ccc" ~at:3);
  let runs, skipped = H.load ~path in
  Sys.remove path;
  Alcotest.(check int) "three runs" 3 (List.length runs);
  Alcotest.(check int) "one corrupt line skipped" 1 skipped;
  let commits = List.map (fun (r : H.run) -> r.H.commit) runs in
  Alcotest.(check (list string)) "append order" [ "aaa"; "bbb"; "ccc" ] commits;
  match H.series_of_runs runs with
  | series ->
    let sec =
      List.find (fun (s : H.series) -> s.H.s_field = "seconds") series
    in
    Alcotest.(check (list (float 1e-9))) "series in run order" [ 1.0; 1.1; 0.9 ]
      sec.H.values

let test_history_median () =
  Alcotest.(check (float 1e-9)) "odd" 2.0 (H.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "even" 1.5 (H.median [ 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (H.median [])

let test_history_regression_flag () =
  let runs =
    [
      bench_payload ~seconds:1.00 ~nodes:100 ~commit:"a" ~at:1;
      bench_payload ~seconds:1.02 ~nodes:100 ~commit:"b" ~at:2;
      bench_payload ~seconds:0.99 ~nodes:100 ~commit:"c" ~at:3;
    ]
    |> List.filter_map H.run_of_json
  in
  (* three steady runs: no regression *)
  Alcotest.(check int) "steady history clean" 0
    (List.length (H.regressions runs));
  (* +20% time on the next run trips the (15%) time gate *)
  let with_reg =
    runs
    @ List.filter_map H.run_of_json
        [ bench_payload ~seconds:1.20 ~nodes:100 ~commit:"d" ~at:4 ]
  in
  (match H.regressions with_reg with
  | [ v ] ->
    Alcotest.(check string) "regressed field" "seconds"
      v.H.v_series.H.s_field;
    Alcotest.(check bool) "delta is ~20%" true
      (v.H.v_delta_pct > 15.0 && v.H.v_delta_pct < 25.0)
  | l -> Alcotest.failf "expected 1 regression, got %d" (List.length l));
  (* a QoR step of +1 node on 100 is under the 2% gate; +5 is over *)
  let qor_ok =
    runs
    @ List.filter_map H.run_of_json
        [ bench_payload ~seconds:1.0 ~nodes:101 ~commit:"e" ~at:5 ]
  in
  Alcotest.(check int) "+1% nodes passes" 0 (List.length (H.regressions qor_ok));
  let qor_bad =
    runs
    @ List.filter_map H.run_of_json
        [ bench_payload ~seconds:1.0 ~nodes:105 ~commit:"f" ~at:6 ]
  in
  Alcotest.(check int) "+5% nodes flagged" 1
    (List.length (H.regressions qor_bad))

let test_history_window () =
  (* the rolling window forgets old values: after K fast runs, an old slow
     era must not mask a regression against the recent median *)
  let mk s i = bench_payload ~seconds:s ~nodes:100 ~commit:"x" ~at:i in
  let runs =
    [ mk 5.0 1; mk 1.0 2; mk 1.0 3; mk 1.0 4; mk 1.0 5; mk 1.0 6; mk 1.3 7 ]
    |> List.filter_map H.run_of_json
  in
  let th = { H.default_thresholds with H.window = 5 } in
  match H.regressions ~thresholds:th runs with
  | [ v ] ->
    (* reference is the median of the last 5 (all 1.0), not of everything *)
    Alcotest.(check (float 1e-9)) "windowed reference" 1.0 v.H.v_reference
  | l -> Alcotest.failf "expected 1 windowed regression, got %d" (List.length l)

(* -- HTML dashboard golden structure -- *)

let test_html_structure () =
  let trace =
    T.of_events
      [
        T.Pass_begin { t = 0.0; flow = "aig"; pass = "rw"; index = 0; gates = 10; depth = 3 };
        T.Metrics
          {
            t = 0.1; flow = "aig"; algo = "cec"; counters = [];
            gauges = [ ("solver_conflicts", 4321); ("solver_propagations", 9) ];
            hists = [];
          };
        T.Pass_end
          { t = 0.2; flow = "aig"; pass = "rw"; index = 0; gates = 8; depth = 3;
            elapsed = 0.2; gc = T.gc_zero };
      ]
  in
  let bench = bench_payload ~seconds:1.0 ~nodes:100 ~commit:"aaa" ~at:1 in
  let history =
    [
      bench_payload ~seconds:1.0 ~nodes:100 ~commit:"a" ~at:1;
      bench_payload ~seconds:1.1 ~nodes:100 ~commit:"b" ~at:2;
      bench_payload ~seconds:0.9 ~nodes:100 ~commit:"c" ~at:3;
    ]
    |> List.filter_map H.run_of_json
  in
  let html = Obs.Html.render ~trace ~bench ~history () in
  let contains needle =
    let nl = String.length needle and hl = String.length html in
    let rec go i =
      i + nl <= hl && (String.sub html i nl = needle || go (i + 1))
    in
    go 0
  in
  (* well-formed shell *)
  Alcotest.(check bool) "doctype" true (contains "<!DOCTYPE html>");
  Alcotest.(check bool) "closes html" true (contains "</html>");
  (* every section anchor present *)
  List.iter
    (fun anchor ->
      Alcotest.(check bool) ("anchor " ^ anchor) true
        (contains (Printf.sprintf "id=\"%s\"" anchor)))
    [ "meta"; "passes"; "sat"; "bench"; "history" ];
  (* content made it in: SAT totals, bench row, sparkline *)
  Alcotest.(check bool) "sat conflicts shown" true
    (contains "conflicts <b>4321</b>");
  Alcotest.(check bool) "benchmark row shown" true (contains "voter");
  Alcotest.(check bool) "sparkline svg" true (contains "<svg class=\"spark\"");
  (* self-contained: no external requests of any kind *)
  List.iter
    (fun banned ->
      Alcotest.(check bool) ("no " ^ banned) true (not (contains banned)))
    [ "http://"; "https://"; "src="; "href="; "url("; "@import" ]

let suite =
  [
    Alcotest.test_case "snapshot monotone (modern kernel)" `Quick
      test_snapshot_modern;
    Alcotest.test_case "snapshot monotone (legacy kernel)" `Quick
      test_snapshot_legacy;
    Alcotest.test_case "summarize attributes SAT work to spans" `Quick
      test_summarize_sat_attribution;
    Alcotest.test_case "old race event line is ignored" `Quick
      test_old_race_line_ignored;
    Alcotest.test_case "empty trace renders gracefully" `Quick
      test_empty_trace_graceful;
    Alcotest.test_case "exact synthesis telemetry counters" `Quick
      test_exact_telemetry;
    Alcotest.test_case "history append/load round trip" `Quick
      test_history_roundtrip;
    Alcotest.test_case "history median" `Quick test_history_median;
    Alcotest.test_case "history regression flag" `Quick
      test_history_regression_flag;
    Alcotest.test_case "history rolling window" `Quick test_history_window;
    Alcotest.test_case "html dashboard golden structure" `Quick
      test_html_structure;
  ]
