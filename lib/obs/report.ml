(* Offline report over the observability artifacts: render a
   TRACE_*.jsonl (read back by [Trace.read_file]) and a BENCH_*.json as
   per-pass / per-benchmark tables, and — the QoR regression gate —
   compare two BENCH files and fail when quality regresses.  This turns
   "did this PR regress Table 1" from eyeballing JSON diffs into an exit
   code CI can enforce.  Unknown fields are skipped so newer producers
   stay readable by older reports. *)

(* The per-pass table with GC and SAT accounting: time %, gate/depth
   deltas, minor/major words allocated during the pass, SAT kernel
   conflicts/propagations attributed to it, and degradation markers. *)
let pp_trace fmt (t : Trace.t) =
  let rows = Trace.summarize t in
  if rows = [] then
    Format.fprintf fmt "trace: no spans recorded (empty or meta-only file)@."
  else begin
    let total = List.fold_left (fun a r -> a +. r.Trace.row_elapsed) 0.0 rows in
    let pct e = if total <= 0.0 then 0.0 else 100.0 *. e /. total in
    Format.fprintf fmt
      "%4s  %-20s %-10s | %8s %5s | %5s | %8s %5s | %10s %10s | %9s %11s | %3s@."
      "#" "flow" "pass" "gates" "dG" "dD" "time" "%" "minor_w" "major_w"
      "sat_confl" "sat_props" "deg";
    List.iter
      (fun (r : Trace.pass_row) ->
        Format.fprintf fmt
          "%4d  %-20s %-10s | %8d %5d | %5d | %7.3fs %4.1f%% | %10.0f %10.0f | %9d %11d | %3d@."
          r.Trace.row_index r.Trace.row_flow r.Trace.row_pass
          r.Trace.gates_after
          (r.Trace.gates_after - r.Trace.gates_before)
          (r.Trace.depth_after - r.Trace.depth_before)
          r.Trace.row_elapsed (pct r.Trace.row_elapsed)
          r.Trace.row_gc.Trace.minor_words r.Trace.row_gc.Trace.major_words
          r.Trace.row_sat_conflicts r.Trace.row_sat_propagations
          r.Trace.row_degraded)
      rows;
    let sum f = List.fold_left (fun a r -> a +. f r) 0.0 rows in
    let sumi f = List.fold_left (fun a r -> a + f r) 0 rows in
    Format.fprintf fmt
      "%4s  %-20s %-10s | %8s %5d | %5d | %7.3fs %5s | %10.0f %10.0f | %9d %11d | %3d@."
      "" "total" "" ""
      (sumi (fun r -> r.Trace.gates_after - r.Trace.gates_before))
      (sumi (fun r -> r.Trace.depth_after - r.Trace.depth_before))
      total "100%"
      (sum (fun r -> r.Trace.row_gc.Trace.minor_words))
      (sum (fun r -> r.Trace.row_gc.Trace.major_words))
      (sumi (fun r -> r.Trace.row_sat_conflicts))
      (sumi (fun r -> r.Trace.row_sat_propagations))
      (sumi (fun r -> r.Trace.row_degraded));
    (* a run that degraded anywhere gets its markers spelled out under the
       table — the per-row count says "how many", these lines say "why" *)
    let degs = Trace.degraded_events t in
    if degs <> [] then begin
      Format.fprintf fmt "degraded: %d marker(s)@." (List.length degs);
      List.iter
        (fun (pass, reason, detail) ->
          Format.fprintf fmt "  %-16s %-10s %s@." pass reason detail)
        degs
    end;
    (* fault-injection telemetry (CLI runs under GENLOG_FAULTS emit one
       "faults" counters event at exit) *)
    List.iter
      (function
        | Trace.Counters { algo = "faults"; counters; _ } ->
          Format.fprintf fmt "faults: %s@."
            (String.concat " "
               (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters))
        | _ -> ())
      (Trace.events t)
  end

(* -- bench side: BENCH_*.json rows -- *)

type bench_row = {
  benchmark : string;
  stage : string;
  fields : (string * float) list;  (* numeric fields only *)
}

let bench_rows (j : Json.t) : bench_row list =
  match Option.bind (Json.member "rows" j) Json.to_list with
  | None -> []
  | Some rows ->
    List.filter_map
      (fun row ->
        match (Json.str_member "benchmark" row, Json.str_member "stage" row) with
        | Some benchmark, Some stage ->
          let fields =
            match row with
            | Json.Obj kvs ->
              List.filter_map
                (fun (k, v) ->
                  if k = "benchmark" || k = "stage" then None
                  else Option.map (fun f -> (k, f)) (Json.to_num v))
                kvs
            | _ -> []
          in
          Some { benchmark; stage; fields }
        | _ -> None)
      rows

let pp_bench fmt (j : Json.t) =
  let rows = bench_rows j in
  let name = Option.value ~default:"?" (Json.str_member "bench" j) in
  Format.fprintf fmt "bench %s (%d rows)@." name (List.length rows);
  (match Json.member "cache" j with
  | Some (Json.Obj kvs) ->
    Format.fprintf fmt "cache: %s@."
      (String.concat " "
         (List.filter_map
            (fun (k, v) ->
              Option.map (fun n -> Printf.sprintf "%s=%.0f" k n) (Json.to_num v))
            kvs))
  | _ -> ());
  Format.fprintf fmt "%-14s %-14s  %s@." "benchmark" "stage" "fields";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-14s %-14s  %s@." r.benchmark r.stage
        (String.concat " "
           (List.map
              (fun (k, v) ->
                if Float.is_integer v && Float.abs v < 1e15 then
                  Printf.sprintf "%s=%.0f" k v
                else Printf.sprintf "%s=%.3f" k v)
              r.fields)))
    rows

(* -- the QoR regression gate -- *)

(* Lower is better for every metric we gate on.  QoR fields are exact
   (deterministic flows), so the limit only absorbs genuine regressions.
   Wall time is not gated: it is only comparable on one machine, where
   the perfbench pipeline measures it. *)
let qor_pct = 2.0
let qor_fields = [ "nodes"; "levels"; "luts"; "lut_levels" ]

(* The gated QoR field set follows the run's cost objective (the "cost"
   header stamped by Runmeta): an area run gates the historical four
   fields, a depth run gates the level metrics, and so on.  An "objective"
   row field (the cost engine's own eval) is gated whenever present.
   Unknown or absent specs fall back to the historical set so old
   artifacts keep gating as before. *)
let qor_fields_for (cost : string option) =
  "objective"
  ::
  (match cost with
  | None | Some "area" -> qor_fields
  | Some "depth" -> [ "levels"; "lut_levels" ]
  | Some "edges" -> [ "edges"; "nodes" ]
  | Some "activity" -> [ "activity" ]
  | Some c when String.length c >= 3 && String.sub c 0 3 = "lut" ->
    [ "luts"; "lut_levels" ]
  | Some c when String.length c >= 8 && String.sub c 0 8 = "weights:" -> []
  | Some _ -> qor_fields)

let cost_of (doc : Json.t) = Json.str_member "cost" doc

(* Pair every baseline row with its (benchmark, stage) match in [current]
   and the gated (field, baseline, current) triples both carry. *)
let compare_rows ~baseline ~current =
  let curr_rows = bench_rows current in
  let gated =
    qor_fields_for
      (match cost_of current with Some c -> Some c | None -> cost_of baseline)
  in
  List.map
    (fun (b : bench_row) ->
      ( b,
        Option.map
          (fun c ->
            List.filter_map
              (fun (key, base_v) ->
                if not (List.mem key gated) then None
                else
                  Option.map
                    (fun cur_v -> (key, base_v, cur_v))
                    (List.assoc_opt key c.fields))
              b.fields)
          (List.find_opt
             (fun r -> r.benchmark = b.benchmark && r.stage = b.stage)
             curr_rows) ))
    (bench_rows baseline)

let pct base_v cur_v = 100.0 *. (cur_v -. base_v) /. Float.max base_v 1e-9

(* Per-metric comparison lines over the gated fields, independent of the
   verdict: a passing gate should still leave evidence in the CI log of
   what was compared and by how much it moved. *)
let deltas ~baseline ~current : string list =
  List.concat_map
    (fun ((b : bench_row), matched) ->
      match matched with
      | None -> [ Printf.sprintf "%s/%s: missing from current" b.benchmark b.stage ]
      | Some fields ->
        List.map
          (fun (key, base_v, cur_v) ->
            Printf.sprintf "%s/%s: %s %.6g -> %.6g (%+.1f%%)" b.benchmark
              b.stage key base_v cur_v (pct base_v cur_v))
          fields)
    (compare_rows ~baseline ~current)

(* Compare [current] against [baseline]; returns one message per
   regression (empty = gate passes).  Rows are matched on
   (benchmark, stage); rows missing from [current] are regressions (a
   silently dropped benchmark must not pass the gate), extra rows in
   [current] are fine (new coverage). *)
let check ~baseline ~current : string list =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  (match (Json.int_member "schema" baseline, Json.int_member "schema" current) with
  | Some b, Some c when b > c ->
    problem "schema mismatch: baseline v%d is newer than current v%d" b c
  | _ -> ());
  (* a run optimized for one objective must not be gated against a
     baseline optimized for another: the comparison is meaningless and
     silently passing it would hide real regressions *)
  (match (cost_of baseline, cost_of current) with
  | Some b, Some c when b <> c ->
    problem "cost-spec mismatch: baseline optimized for %S, current for %S" b c
  | _ -> ());
  List.iter
    (fun ((b : bench_row), matched) ->
      match matched with
      | None -> problem "%s/%s: row missing from current" b.benchmark b.stage
      | Some fields ->
        List.iter
          (fun (key, base_v, cur_v) ->
            let limit = base_v *. (1.0 +. (qor_pct /. 100.0)) in
            if cur_v > limit +. 1e-9 then
              problem "%s/%s: %s regressed %.6g -> %.6g (limit %.6g, +%.1f%%)"
                b.benchmark b.stage key base_v cur_v limit (pct base_v cur_v))
          fields)
    (compare_rows ~baseline ~current);
  List.rev !problems
