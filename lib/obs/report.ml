(* Offline report over the observability artifacts: join a TRACE_*.jsonl
   with its BENCH_*.json into per-pass / per-benchmark tables, and — the
   QoR regression gate — compare two BENCH files and fail when quality or
   time regress beyond thresholds.  This turns "did this PR regress
   Table 1" from eyeballing JSON diffs into an exit code CI can enforce.

   Everything here parses the files this repo writes (schema stamped by
   runmeta.ml); unknown events and fields are skipped so newer producers
   stay readable by older reports. *)

(* -- trace side: JSONL -> events -> spans -- *)

(* Rebuild trace events from a JSONL file.  Histogram payloads of metrics
   events are summarized away (count/min/max survive via the JSON but are
   not needed for tables); unknown events — the meta line, and the "race"
   lines of traces written while a SAT portfolio existed — are skipped. *)
let events_of_json (lines : Json.t list) : Trace.event list =
  List.filter_map
    (fun j ->
      let t = Option.value ~default:0.0 (Json.num_member "t" j) in
      let flow = Option.value ~default:"" (Json.str_member "flow" j) in
      let int k = Option.value ~default:0 (Json.int_member k j) in
      let counters key =
        match Json.member key j with
        | Some (Json.Obj kvs) ->
          List.filter_map
            (fun (k, v) ->
              Option.map (fun f -> (k, int_of_float f)) (Json.to_num v))
            kvs
        | _ -> []
      in
      match Json.str_member "event" j with
      | Some "pass_begin" ->
        Some
          (Trace.Pass_begin
             {
               t;
               flow;
               pass = Option.value ~default:"" (Json.str_member "pass" j);
               index = int "index";
               gates = int "gates";
               depth = int "depth";
             })
      | Some "pass_end" ->
        let gc =
          match Json.member "gc" j with
          | Some g ->
            let num k = Option.value ~default:0.0 (Json.num_member k g) in
            let cnt k = Option.value ~default:0 (Json.int_member k g) in
            {
              Trace.minor_words = num "minor_words";
              major_words = num "major_words";
              promoted_words = num "promoted_words";
              minor_collections = cnt "minor_collections";
              major_collections = cnt "major_collections";
            }
          | None -> Trace.gc_zero
        in
        Some
          (Trace.Pass_end
             {
               t;
               flow;
               pass = Option.value ~default:"" (Json.str_member "pass" j);
               index = int "index";
               gates = int "gates";
               depth = int "depth";
               elapsed = Option.value ~default:0.0 (Json.num_member "elapsed" j);
               gc;
             })
      | Some "counters" ->
        Some
          (Trace.Counters
             {
               t;
               flow;
               algo = Option.value ~default:"" (Json.str_member "algo" j);
               counters = counters "counters";
             })
      | Some "metrics" ->
        Some
          (Trace.Metrics
             {
               t;
               flow;
               algo = Option.value ~default:"" (Json.str_member "algo" j);
               counters = counters "counters";
               gauges = counters "gauges";
               hists = [];
             })
      | Some "node" ->
        Some
          (Trace.Node_event
             {
               t;
               flow;
               algo = Option.value ~default:"" (Json.str_member "algo" j);
               node = int "node";
               gain = int "gain";
               accepted = Json.member "accepted" j = Some (Json.Bool true);
             })
      | Some "degraded" ->
        Some
          (Trace.Degraded
             {
               t;
               flow;
               pass = Option.value ~default:"" (Json.str_member "pass" j);
               reason = Option.value ~default:"" (Json.str_member "reason" j);
               detail = Option.value ~default:"" (Json.str_member "detail" j);
             })
      | _ -> None)
    lines

let load_trace path : Trace.t =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then lines := Json.parse line :: !lines
     done
   with End_of_file -> close_in ic);
  Trace.of_events (events_of_json (List.rev !lines))

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
   (deterministic flows), so the threshold only absorbs genuine
   regressions; seconds are noisy, so their threshold is loose and an
   absolute floor ignores sub-50ms jitter entirely. *)
let qor_fields = [ "nodes"; "levels"; "luts"; "lut_levels" ]
let time_fields = [ "seconds"; "seconds_sum" ]

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

type thresholds = {
  qor_pct : float;   (* max allowed relative QoR regression, percent *)
  time_pct : float;  (* max allowed relative time regression, percent *)
  time_floor : float;  (* absolute seconds below which time diffs are noise *)
  check_time : bool;
}

let default_thresholds =
  { qor_pct = 2.0; time_pct = 50.0; time_floor = 0.05; check_time = true }

(* Per-metric comparison lines over the gated fields, independent of the
   verdict: a passing gate should still leave evidence in the CI log of
   what was compared and by how much it moved. *)
let deltas ~baseline ~current : string list =
  let curr_rows = bench_rows current in
  let gated =
    qor_fields_for
      (match cost_of current with Some c -> Some c | None -> cost_of baseline)
  in
  let find b s =
    List.find_opt (fun r -> r.benchmark = b && r.stage = s) curr_rows
  in
  List.concat_map
    (fun (b : bench_row) ->
      match find b.benchmark b.stage with
      | None -> [ Printf.sprintf "%s/%s: missing from current" b.benchmark b.stage ]
      | Some c ->
        List.filter_map
          (fun (key, base_v) ->
            if not (List.mem key gated || List.mem key time_fields) then None
            else
              Option.map
                (fun cur_v ->
                  Printf.sprintf "%s/%s: %s %.6g -> %.6g (%+.1f%%)" b.benchmark
                    b.stage key base_v cur_v
                    (100.0 *. (cur_v -. base_v) /. Float.max base_v 1e-9))
                (List.assoc_opt key c.fields))
          b.fields)
    (bench_rows baseline)

(* Compare [current] against [baseline]; returns one message per
   regression (empty = gate passes).  Rows are matched on
   (benchmark, stage); rows missing from [current] are regressions (a
   silently dropped benchmark must not pass the gate), extra rows in
   [current] are fine (new coverage). *)
let check ~baseline ~current (th : thresholds) : string list =
  let curr_rows = bench_rows current in
  let find b s =
    List.find_opt (fun r -> r.benchmark = b && r.stage = s) curr_rows
  in
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
  let gated =
    qor_fields_for
      (match cost_of current with Some c -> Some c | None -> cost_of baseline)
  in
  List.iter
    (fun (b : bench_row) ->
      match find b.benchmark b.stage with
      | None -> problem "%s/%s: row missing from current" b.benchmark b.stage
      | Some c ->
        List.iter
          (fun (key, base_v) ->
            match List.assoc_opt key c.fields with
            | None -> ()
            | Some cur_v ->
              let qor = List.mem key gated in
              let timed = List.mem key time_fields in
              if qor || (timed && th.check_time) then begin
                let pct = if qor then th.qor_pct else th.time_pct in
                let floor = if qor then 0.0 else th.time_floor in
                let limit = base_v *. (1.0 +. (pct /. 100.0)) in
                if cur_v > limit +. 1e-9 && cur_v -. base_v > floor then
                  problem "%s/%s: %s regressed %.6g -> %.6g (limit %.6g, +%.1f%%)"
                    b.benchmark b.stage key base_v cur_v limit
                    (100.0 *. (cur_v -. base_v) /. Float.max base_v 1e-9)
              end)
          b.fields)
    (bench_rows baseline);
  List.rev !problems
