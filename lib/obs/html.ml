(* Single-file HTML dashboard over the observability artifacts: per-pass
   time/gain tables from a trace, SAT kernel summaries (conflict and
   propagation totals), exact-store hit rates, bench rows, and cross-run
   history sparklines.

   The page is fully self-contained — inline CSS, inline SVG, no external
   assets or requests — so it can be archived as a CI artifact and opened
   years later, offline, and still render.  Section anchors (#meta,
   #passes, #sat, #bench, #history) are stable so CI job summaries can
   deep-link. *)

let esc s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let style =
  "body{font:14px/1.5 system-ui,sans-serif;margin:2em auto;max-width:72em;\
   color:#1a1a2e;padding:0 1em}\
   h1{font-size:1.4em}h2{font-size:1.1em;border-bottom:1px solid #ccd;\
   padding-bottom:.2em;margin-top:2em}\
   table{border-collapse:collapse;margin:.5em 0;font-variant-numeric:tabular-nums}\
   th,td{border:1px solid #dde;padding:.25em .6em;text-align:right}\
   th{background:#eef;position:sticky;top:0}\
   td:first-child,th:first-child,td.l,th.l{text-align:left}\
   .bad{background:#fdd;font-weight:bold}\
   .ok{color:#161}\
   .muted{color:#667}\
   svg.spark{vertical-align:middle}"

let fnum v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3f" v

(* Inline SVG sparkline: a polyline over the series, min..max normalized,
   latest point marked.  Pure markup, no script. *)
let sparkline ?(w = 120) ?(h = 24) (values : float list) : string =
  match values with
  | [] | [ _ ] -> "<span class=\"muted\">-</span>"
  | vs ->
    let n = List.length vs in
    let lo = List.fold_left Float.min infinity vs in
    let hi = List.fold_left Float.max neg_infinity vs in
    let span = if hi -. lo <= 0.0 then 1.0 else hi -. lo in
    let pt i v =
      let x = float_of_int i *. float_of_int w /. float_of_int (n - 1) in
      let y =
        2.0 +. ((1.0 -. ((v -. lo) /. span)) *. (float_of_int h -. 4.0))
      in
      (x, y)
    in
    let pts = List.mapi pt vs in
    let path =
      String.concat " "
        (List.map (fun (x, y) -> Printf.sprintf "%.1f,%.1f" x y) pts)
    in
    let lx, ly = List.nth pts (n - 1) in
    Printf.sprintf
      "<svg class=\"spark\" width=\"%d\" height=\"%d\" \
       viewBox=\"0 0 %d %d\"><polyline points=\"%s\" fill=\"none\" \
       stroke=\"#36c\" stroke-width=\"1.5\"/><circle cx=\"%.1f\" cy=\"%.1f\" \
       r=\"2\" fill=\"#c33\"/></svg>"
      w h w h path lx ly

(* -- sections -- *)

let section_meta b =
  Buffer.add_string b "<h2 id=\"meta\">Run metadata</h2><table>";
  List.iter
    (fun (k, v) ->
      Buffer.add_string b
        (Printf.sprintf "<tr><th class=\"l\">%s</th><td class=\"l\">%s</td></tr>"
           (esc k) (esc v)))
    (Runmeta.fields ());
  Buffer.add_string b "</table>"

let section_passes b (trace : Trace.t) (rows : Trace.pass_row list) =
  Buffer.add_string b "<h2 id=\"passes\">Passes</h2>";
  (* degraded-job banner first: a dashboard reader must not mistake a
     best-so-far run for a clean one *)
  (let degs = Trace.degraded_events trace in
   if degs <> [] then begin
     Buffer.add_string b
       (Printf.sprintf
          "<p class=\"bad\">degraded run: %d marker(s)</p><ul>"
          (List.length degs));
     List.iter
       (fun (pass, reason, detail) ->
         Buffer.add_string b
           (Printf.sprintf "<li><b>%s</b>: %s — %s</li>" (esc pass)
              (esc reason) (esc detail)))
       degs;
     Buffer.add_string b "</ul>"
   end);
  if rows = [] then
    Buffer.add_string b "<p class=\"muted\">no spans recorded</p>"
  else begin
    let total = List.fold_left (fun a r -> a +. r.Trace.row_elapsed) 0.0 rows in
    Buffer.add_string b
      "<table><tr><th class=\"l\">#</th><th class=\"l\">flow</th>\
       <th class=\"l\">pass</th><th>gates</th><th>dG</th><th>dD</th>\
       <th>time</th><th>%</th><th>sat confl</th><th>sat props</th>\
       <th>deg</th></tr>";
    List.iter
      (fun (r : Trace.pass_row) ->
        let pct =
          if total <= 0.0 then 0.0 else 100.0 *. r.Trace.row_elapsed /. total
        in
        Buffer.add_string b
          (Printf.sprintf
             "<tr><td class=\"l\">%d</td><td class=\"l\">%s</td>\
              <td class=\"l\">%s</td><td>%d</td><td>%d</td><td>%d</td>\
              <td>%.3fs</td><td>%.1f%%</td><td>%d</td><td>%d</td>\
              <td%s>%d</td></tr>"
             r.Trace.row_index (esc r.Trace.row_flow) (esc r.Trace.row_pass)
             r.Trace.gates_after
             (r.Trace.gates_after - r.Trace.gates_before)
             (r.Trace.depth_after - r.Trace.depth_before)
             r.Trace.row_elapsed pct r.Trace.row_sat_conflicts
             r.Trace.row_sat_propagations
             (if r.Trace.row_degraded > 0 then " class=\"bad\"" else "")
             r.Trace.row_degraded))
      rows;
    Buffer.add_string b "</table>"
  end

(* SAT summary: totals over the pass rows and the exact-synthesis store's
   hit rate (from the last "exact_db" metrics event the engine emits after
   cleanup). *)
let section_sat b (trace : Trace.t) (rows : Trace.pass_row list) =
  Buffer.add_string b "<h2 id=\"sat\">SAT kernel</h2>";
  let confl =
    List.fold_left (fun a r -> a + r.Trace.row_sat_conflicts) 0 rows
  in
  let props =
    List.fold_left (fun a r -> a + r.Trace.row_sat_propagations) 0 rows
  in
  Buffer.add_string b
    (Printf.sprintf "<p>conflicts <b>%d</b>, propagations <b>%d</b></p>" confl
       props);
  (* exact-synthesis store: last exact_db gauge set wins (cumulative) *)
  let db_gauges = ref [] in
  List.iter
    (function
      | Trace.Metrics { algo = "exact_db"; gauges; _ } -> db_gauges := gauges
      | _ -> ())
    (Trace.events trace);
  match !db_gauges with
  | [] -> ()
  | gauges ->
    let g k = Option.value ~default:0 (List.assoc_opt k gauges) in
    let hits = g "hits" and misses = g "misses" in
    let rate =
      if hits + misses = 0 then 0.0
      else 100.0 *. float_of_int hits /. float_of_int (hits + misses)
    in
    Buffer.add_string b
      (Printf.sprintf "<p>exact store: hit rate <b>%.1f%%</b> (%s)</p>" rate
         (esc
            (String.concat ", "
               (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) gauges))))

let section_bench b (bench : Json.t) =
  Buffer.add_string b "<h2 id=\"bench\">Benchmark</h2>";
  let rows = Report.bench_rows bench in
  if rows = [] then Buffer.add_string b "<p class=\"muted\">no bench rows</p>"
  else begin
    let name = Option.value ~default:"?" (Json.str_member "bench" bench) in
    Buffer.add_string b
      (Printf.sprintf "<p>bench <b>%s</b>, %d rows</p>" (esc name)
         (List.length rows));
    (* union of field names, in first-seen order, for a rectangular table *)
    let cols = ref [] in
    List.iter
      (fun (r : Report.bench_row) ->
        List.iter
          (fun (k, _) -> if not (List.mem k !cols) then cols := !cols @ [ k ])
          r.fields)
      rows;
    Buffer.add_string b
      "<table><tr><th class=\"l\">benchmark</th><th class=\"l\">stage</th>";
    List.iter
      (fun c -> Buffer.add_string b (Printf.sprintf "<th>%s</th>" (esc c)))
      !cols;
    Buffer.add_string b "</tr>";
    List.iter
      (fun (r : Report.bench_row) ->
        Buffer.add_string b
          (Printf.sprintf "<tr><td class=\"l\">%s</td><td class=\"l\">%s</td>"
             (esc r.benchmark) (esc r.stage));
        List.iter
          (fun c ->
            Buffer.add_string b
              (match List.assoc_opt c r.fields with
              | Some v -> Printf.sprintf "<td>%s</td>" (fnum v)
              | None -> "<td class=\"muted\">-</td>"))
          !cols;
        Buffer.add_string b "</tr>")
      rows;
    Buffer.add_string b "</table>"
  end

let section_history b (runs : History.run list) =
  Buffer.add_string b "<h2 id=\"history\">History</h2>";
  if runs = [] then
    Buffer.add_string b "<p class=\"muted\">no recorded runs</p>"
  else begin
    Buffer.add_string b
      (Printf.sprintf "<p>%d recorded runs</p>" (List.length runs));
    Buffer.add_string b
      "<table><tr><th class=\"l\">bench</th><th class=\"l\">benchmark</th>\
       <th class=\"l\">stage</th><th class=\"l\">field</th><th>runs</th>\
       <th>median</th><th>latest</th><th>delta</th>\
       <th class=\"l\">trend</th></tr>";
    List.iter
      (fun (s : History.series) ->
        let latest = List.nth s.values (List.length s.values - 1) in
        let verdict = History.judge History.default_thresholds s in
        let cls, median_s, delta_s =
          match verdict with
          | None -> ("", "-", "-")
          | Some v ->
            ( (if v.History.v_regressed then " class=\"bad\"" else ""),
              fnum v.History.v_reference,
              Printf.sprintf "%+.1f%%" v.History.v_delta_pct )
        in
        Buffer.add_string b
          (Printf.sprintf
             "<tr%s><td class=\"l\">%s</td><td class=\"l\">%s</td>\
              <td class=\"l\">%s</td><td class=\"l\">%s</td><td>%d</td>\
              <td>%s</td><td>%s</td><td>%s</td><td class=\"l\">%s</td></tr>"
             cls (esc s.History.s_bench) (esc s.History.s_benchmark)
             (esc s.History.s_stage) (esc s.History.s_field)
             (List.length s.values) median_s (fnum latest) delta_s
             (sparkline s.values)))
      (History.series_of_runs runs);
    Buffer.add_string b "</table>"
  end

(* -- the page -- *)

let render ?(title = "genlog dashboard") ?trace ?bench ?(history = []) () :
    string =
  let b = Buffer.create 16384 in
  Buffer.add_string b
    (Printf.sprintf
       "<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">\
        <meta name=\"viewport\" content=\"width=device-width\">\
        <title>%s</title><style>%s</style></head><body><h1>%s</h1>"
       (esc title) style (esc title));
  section_meta b;
  (match trace with
  | Some t ->
    let rows = Trace.summarize t in
    section_passes b t rows;
    section_sat b t rows
  | None -> ());
  (match bench with Some j -> section_bench b j | None -> ());
  section_history b history;
  Buffer.add_string b "</body></html>\n";
  Buffer.contents b

let write_file ?title ?trace ?bench ?history ~path () =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (render ?title ?trace ?bench ?history ()))
