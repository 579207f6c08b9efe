(* Tests for the observability subsystem: trace span structure (golden
   event sequence for compress_lite), JSONL rendering, timestamp
   monotonicity, the telescoping invariant (per-pass deltas sum to the
   whole-flow delta), and per-domain portfolio traces. *)

open Network
module T = Obs.Trace
module F = Flow.Engine.Make (Aig)
module S = Lsgen.Suite.Make (Aig)
module Copy = Convert.Make (Aig) (Aig)

(* Run compress_lite on [ctrl] under a fresh trace.  Returns the gate
   count the flow started from (the copied network's — the copy sweeps
   dangling nodes, so it can be smaller than the raw generator output). *)
let traced_run () =
  let baseline = S.build "ctrl" in
  let work = Copy.convert baseline in
  let initial_gates = Aig.num_gates work in
  let env = Flow.Engine.make_env Flow.Run_config.Aig in
  let trace = T.create ~flow:"aig" () in
  let optimized = F.run_script env ~trace work Flow.Script.compress_lite in
  (initial_gates, optimized, trace)

let span_events trace =
  List.filter_map
    (function
      | T.Pass_begin { pass; index; _ } -> Some ("pass_begin", pass, index)
      | T.Pass_end { pass; index; _ } -> Some ("pass_end", pass, index)
      | T.Counters _ | T.Degraded _ -> None)
    (T.events trace)

let test_null_sink () =
  Alcotest.(check bool) "null disabled" false (T.enabled T.null);
  T.pass_begin T.null ~pass:"bz" ~index:0 ~gates:1 ~depth:1;
  T.report T.null ~algo:"balance" [ ("tried", 1) ];
  Alcotest.(check int) "null buffers nothing" 0 (List.length (T.events T.null))

(* Golden span sequence: one begin/end pair per script command, in command
   order, plus the final cleanup span. *)
let test_span_sequence () =
  let _, _, trace = traced_run () in
  let commands = Flow.Script.parse Flow.Script.compress_lite in
  let n = List.length commands in
  let expected =
    List.concat
      (List.mapi
         (fun i c ->
           let p = Flow.Script.to_string c in
           [ ("pass_begin", p, i); ("pass_end", p, i) ])
         commands)
    @ [ ("pass_begin", "cleanup", n); ("pass_end", "cleanup", n) ]
  in
  Alcotest.(check (list (triple string string int)))
    "span sequence" expected (span_events trace)

(* Golden partition span sequence: carve, then one span per piece on the
   worker's child trace inside the opt span (an improved piece adds the
   guard's "cec" event), then the stitch.  Captured from int2float with
   one worker and a 40-gate cap. *)
let test_partition_span_sequence () =
  let module P = Flow.Partition.Make (Aig) in
  let trace = T.create ~flow:"aig" () in
  ignore
    (P.run ~trace ~size_cap:40 ~jobs:1
       ~env:(Flow.Engine.make_env Flow.Run_config.Aig)
       (S.build "int2float"));
  let seen =
    List.map
      (function
        | T.Pass_begin { pass; index; gates; depth; _ } ->
          Printf.sprintf "begin %s %d %d %d" pass index gates depth
        | T.Pass_end { pass; index; gates; depth; _ } ->
          Printf.sprintf "end %s %d %d %d" pass index gates depth
        | T.Counters { algo; _ } -> "counters " ^ algo
        | T.Degraded { pass; _ } -> "degraded " ^ pass)
      (T.events trace)
  in
  Alcotest.(check (list string)) "partition span sequence"
    [
      "begin partition-carve 0 160 21"; "counters partition";
      "end partition-carve 0 160 21"; "begin partition-opt 1 160 21";
      "begin part0 0 40 14"; "counters cec";
      "counters partition"; "end part0 0 23 10";
      "begin part1 1 40 6"; "counters cec";
      "counters partition"; "end part1 1 38 5";
      "begin part2 2 40 8"; "counters partition"; "end part2 2 40 8";
      "begin part3 3 3 3"; "counters partition"; "end part3 3 3 3";
      "counters partition"; "end partition-opt 1 160 21";
      "begin partition-stitch 2 160 21"; "end partition-stitch 2 104 17";
    ]
    seen

let timestamp = function
  | T.Pass_begin { t; _ }
  | T.Pass_end { t; _ }
  | T.Counters { t; _ }
  | T.Degraded { t; _ } -> t

let flow_of = function
  | T.Pass_begin { flow; _ }
  | T.Pass_end { flow; _ }
  | T.Counters { flow; _ }
  | T.Degraded { flow; _ } -> flow

let test_monotonic_timestamps () =
  let _, _, trace = traced_run () in
  let ts = List.map timestamp (T.events trace) in
  let rec mono = function
    | a :: (b :: _ as rest) -> a <= b && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "non-negative" true (List.for_all (fun t -> t >= 0.0) ts);
  Alcotest.(check bool) "non-decreasing" true (mono ts)

(* The final pass_end must report the stats of the network the flow
   actually returned (the cleaned copy). *)
let test_final_stats_match () =
  let _, optimized, trace = traced_run () in
  let final_gates, final_depth = F.network_stats optimized in
  let last_end =
    List.fold_left
      (fun acc e -> match e with T.Pass_end _ -> Some e | _ -> acc)
      None (T.events trace)
  in
  match last_end with
  | Some (T.Pass_end { gates; depth; _ }) ->
    Alcotest.(check int) "final gates" final_gates gates;
    Alcotest.(check int) "final depth" final_depth depth
  | _ -> Alcotest.fail "no pass_end event"

(* Spans are contiguous, so per-pass deltas telescope: the sum of
   (after - before) over all passes equals the whole-flow delta. *)
let test_deltas_telescope () =
  let initial_gates, optimized, trace = traced_run () in
  let rows = T.summarize trace in
  Alcotest.(check bool) "has rows" true (rows <> []);
  let rec contiguous = function
    | (a : T.pass_row) :: (b :: _ as rest) ->
      a.T.gates_after = b.T.gates_before
      && a.T.depth_after = b.T.depth_before
      && contiguous rest
    | _ -> true
  in
  Alcotest.(check bool) "contiguous spans" true (contiguous rows);
  let first = List.hd rows in
  let last = List.nth rows (List.length rows - 1) in
  Alcotest.(check int) "starts at initial gates" initial_gates
    first.T.gates_before;
  Alcotest.(check int) "ends at final gates" (Aig.num_gates optimized)
    last.T.gates_after;
  let gate_delta =
    List.fold_left
      (fun acc (r : T.pass_row) -> acc + (r.T.gates_after - r.T.gates_before))
      0 rows
  in
  let depth_delta =
    List.fold_left
      (fun acc (r : T.pass_row) -> acc + (r.T.depth_after - r.T.depth_before))
      0 rows
  in
  Alcotest.(check int) "gate deltas telescope"
    (last.T.gates_after - first.T.gates_before)
    gate_delta;
  Alcotest.(check int) "depth deltas telescope"
    (last.T.depth_after - first.T.depth_before)
    depth_delta

(* Every line of the JSONL rendering is one non-empty object with an
   "event" discriminator; line count equals event count plus the leading
   run-metadata line. *)
let test_jsonl_rendering () =
  let _, _, trace = traced_run () in
  let path = Filename.temp_file "genlog_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      T.write_file trace path;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check int) "one line per event plus meta"
        (List.length (T.events trace) + 1)
        (List.length lines);
      let contains hay needle =
        let n = String.length hay and m = String.length needle in
        let rec scan i =
          i + m <= n && (String.sub hay i m = needle || scan (i + 1))
        in
        scan 0
      in
      let meta = List.hd lines in
      Alcotest.(check bool) "meta line first" true
        (contains meta "\"event\":\"meta\"");
      Alcotest.(check bool) "meta has schema" true (contains meta "\"schema\"");
      Alcotest.(check bool) "meta has ocaml version" true
        (contains meta "\"ocaml\"");
      List.iter
        (fun line ->
          let n = String.length line in
          Alcotest.(check bool) "object braces" true
            (n > 2 && line.[0] = '{' && line.[n - 1] = '}');
          let has_event =
            let needle = "\"event\":" in
            let m = String.length needle in
            let rec scan i =
              i + m <= n && (String.sub line i m = needle || scan (i + 1))
            in
            scan 0
          in
          Alcotest.(check bool) "has event field" true has_event)
        lines)

(* Counters events are emitted inside their enclosing span and attached by
   [summarize]; every optimization pass reports at least one counter. *)
let test_counters_attached () =
  let _, _, trace = traced_run () in
  let rows = T.summarize trace in
  List.iter
    (fun (r : T.pass_row) ->
      if r.T.row_pass <> "cleanup" then
        Alcotest.(check bool)
          (r.T.row_pass ^ " has counters")
          true
          (r.T.row_counters <> []))
    rows

(* The portfolio merges one child sink per representation; events from
   different domains stay per-flow contiguous and per-flow monotonic. *)
let test_portfolio_trace () =
  let baseline = S.build "ctrl" in
  let trace = T.create () in
  let _ =
    Flow.Portfolio.run ~script:Flow.Script.compress_lite ~trace baseline
  in
  let flows =
    List.sort_uniq compare
      (List.filter_map
         (fun e ->
           (* the parent sink carries one roster-level counters record on
              the root flow ""; the per-representation labels are the
              children's *)
           match flow_of e with "" -> None | f -> Some f)
         (T.events trace))
  in
  Alcotest.(check (list string))
    "one flow label per representation"
    [ "aig"; "mig"; "xag"; "xmg" ]
    flows;
  List.iter
    (fun flow ->
      let ts =
        List.filter_map
          (fun e -> if flow_of e = flow then Some (timestamp e) else None)
          (T.events trace)
      in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      Alcotest.(check bool) (flow ^ " monotonic") true (mono ts))
    flows

(* -- Gc deltas: clamped non-negative, attached to pass_end -- *)

let test_gc_delta_nonnegative () =
  let g0 = Gc.quick_stat () in
  let _ = Array.init 10_000 (fun i -> i) in
  let g1 = Gc.quick_stat () in
  let d = T.gc_diff g0 g1 in
  Alcotest.(check bool) "minor words >= 0" true (d.T.minor_words >= 0.0);
  Alcotest.(check bool) "major words >= 0" true (d.T.major_words >= 0.0);
  (* reversed order must clamp, not go negative *)
  let r = T.gc_diff g1 g0 in
  Alcotest.(check bool) "reversed clamps to zero" true
    (r.T.minor_words >= 0.0 && r.T.major_words >= 0.0);
  (* every pass_end of a real run carries a non-negative delta *)
  let _, _, trace = traced_run () in
  List.iter
    (function
      | T.Pass_end { gc; _ } ->
        Alcotest.(check bool) "pass gc non-negative" true
          (gc.T.minor_words >= 0.0 && gc.T.major_words >= 0.0)
      | _ -> ())
    (T.events trace)

(* -- summary rendering: % column and totals row -- *)

let test_summary_totals () =
  let _, _, trace = traced_run () in
  let s = Format.asprintf "%a" T.pp_summary trace in
  let contains needle =
    let n = String.length s and m = String.length needle in
    let rec scan i = i + m <= n && (String.sub s i m = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "has %% column header" true (contains "%");
  Alcotest.(check bool) "has totals row" true (contains "total")

let suite =
  [
    Alcotest.test_case "null sink" `Quick test_null_sink;
    Alcotest.test_case "gc deltas non-negative" `Slow test_gc_delta_nonnegative;
    Alcotest.test_case "summary totals row" `Slow test_summary_totals;
    Alcotest.test_case "span sequence (compress_lite golden)" `Slow
      test_span_sequence;
    Alcotest.test_case "partition span sequence (int2float golden)" `Slow
      test_partition_span_sequence;
    Alcotest.test_case "monotonic timestamps" `Slow test_monotonic_timestamps;
    Alcotest.test_case "final stats match returned network" `Slow
      test_final_stats_match;
    Alcotest.test_case "per-pass deltas telescope" `Slow test_deltas_telescope;
    Alcotest.test_case "jsonl rendering" `Slow test_jsonl_rendering;
    Alcotest.test_case "counters attached to spans" `Slow
      test_counters_attached;
    Alcotest.test_case "portfolio per-domain traces" `Slow
      test_portfolio_trace;
  ]
