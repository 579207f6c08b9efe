(* Pass-level observability (the telemetry substrate of the flow layers).

   A [Trace.t] is a sink for structured events describing what an
   optimization flow did: one [Pass_begin]/[Pass_end] span per script
   command (wall time plus gate/depth before and after, plus the GC work
   the pass caused), one [Counters] event per algorithm invocation
   (candidates tried / accepted / rejected-by-gain, cuts kept, SAT
   verdicts and [solver_*] kernel stats, LUT-map results, ...), and one
   [Degraded] marker per graceful degradation.  mockturtle attaches a
   stats object to every algorithm for the same reason: without per-pass
   numbers a flow is a black box and regressions can only be localized
   at whole-flow granularity.

   The sink is either [Null] — every emit is a single pattern match, so
   disabled tracing costs nothing measurable — or an in-memory buffer that
   renders to JSONL (one event object per line, preceded by one meta line
   stamping the producing run).  Buffers are single-writer: parallel flows
   (e.g. the portfolio's domains) each write a [child] sink and the parent
   [merge]s them in join order, so tracing never needs a lock.  Timestamps
   are seconds relative to the root sink's creation; children share the
   parent's epoch so merged events remain comparable. *)

type counters = (string * int) list

(* GC work attributed to a span: deltas of [Gc.quick_stat] taken at
   [pass_begin] and [pass_end].  Words are floats because that is how the
   runtime reports them (they overflow ints on 32-bit platforms). *)
type gc_delta = { minor_words : float; major_words : float }

let gc_zero = { minor_words = 0.0; major_words = 0.0 }

(* Counters of [Gc.quick_stat] are monotone within one domain, but clamp
   anyway: a span must never report negative GC work. *)
let gc_diff (g0 : Gc.stat) (g1 : Gc.stat) =
  {
    minor_words = Float.max 0.0 (g1.Gc.minor_words -. g0.Gc.minor_words);
    major_words = Float.max 0.0 (g1.Gc.major_words -. g0.Gc.major_words);
  }

type event =
  | Pass_begin of {
      t : float;
      flow : string;
      pass : string;
      index : int;
      gates : int;
      depth : int;
    }
  | Pass_end of {
      t : float;
      flow : string;
      pass : string;
      index : int;
      gates : int;
      depth : int;
      elapsed : float;
      gc : gc_delta;
    }
  | Counters of { t : float; flow : string; algo : string; counters : counters }
  | Degraded of {
      t : float;
      flow : string;
      pass : string;  (* which pass (or subsystem) gave up *)
      reason : string;  (* "deadline" | "exception" | "interrupt" *)
      detail : string;
    }

type sink = {
  flow : string;  (* label stamped on every event; "" at the root *)
  epoch : float;
  mutable rev_events : event list;  (* newest first *)
}

type t = Null | Sink of sink

let null = Null
let enabled = function Null -> false | Sink _ -> true

let create ?(flow = "") () =
  Sink { flow; epoch = Unix.gettimeofday (); rev_events = [] }

(* A replay sink holding [events] verbatim — used by offline consumers
   (report, chrome export) to rebuild a trace from a JSONL file. *)
let of_events events =
  Sink { flow = ""; epoch = 0.0; rev_events = List.rev events }

(* A child sink for a sub-flow (one portfolio member, one benchmark):
   same epoch, extended label, its own buffer.  Null propagates, so a
   disabled parent makes every descendant free as well. *)
let child t ~flow =
  match t with
  | Null -> Null
  | Sink s ->
    let label = if s.flow = "" then flow else s.flow ^ "/" ^ flow in
    Sink { flow = label; epoch = s.epoch; rev_events = [] }

(* Append the children's events (in list order) after the parent's. *)
let merge t children =
  match t with
  | Null -> ()
  | Sink p ->
    List.iter
      (function Null -> () | Sink c -> p.rev_events <- c.rev_events @ p.rev_events)
      children

let events = function Null -> [] | Sink s -> List.rev s.rev_events

let now s = Unix.gettimeofday () -. s.epoch

let pass_begin t ~pass ~index ~gates ~depth =
  match t with
  | Null -> ()
  | Sink s ->
    s.rev_events <-
      Pass_begin { t = now s; flow = s.flow; pass; index; gates; depth }
      :: s.rev_events

let pass_end t ?(gc = gc_zero) ~pass ~index ~gates ~depth ~elapsed () =
  match t with
  | Null -> ()
  | Sink s ->
    s.rev_events <-
      Pass_end { t = now s; flow = s.flow; pass; index; gates; depth; elapsed; gc }
      :: s.rev_events

(* One traced span around [f]: a [pass_begin]/[pass_end] pair carrying
   the (gates, depth) stats [before ()] and [after result], the elapsed
   wall time and the GC work [f] caused.  Events [f] emits land inside
   the span.  Under [null] this is just [f ()]: no stats, timestamps or
   GC counters are computed. *)
let span t ~pass ~index ~before ~after f =
  match t with
  | Null -> f ()
  | Sink _ ->
    let gates, depth = before () in
    let t0 = Unix.gettimeofday () in
    let g0 = Gc.quick_stat () in
    pass_begin t ~pass ~index ~gates ~depth;
    let r = f () in
    let elapsed = Unix.gettimeofday () -. t0 in
    let gc = gc_diff g0 (Gc.quick_stat ()) in
    let gates, depth = after r in
    pass_end t ~gc ~pass ~index ~gates ~depth ~elapsed ();
    r

(* Per-algorithm counters, emitted between the enclosing span's begin and
   end events.  Keys prefixed [solver_] are SAT kernel stats, which
   [summarize] folds into the span's SAT totals.  Call sites guard with
   [enabled] when building the counter list itself has a cost. *)
let report t ~algo counters =
  match t with
  | Null -> ()
  | Sink s ->
    s.rev_events <-
      Counters { t = now s; flow = s.flow; algo; counters } :: s.rev_events

(* A graceful-degradation marker: the run kept a valid (best-so-far)
   result but gave up on part of the work — a pass deadline expired, a
   pass raised and was rolled back to the last checkpoint, a partition
   piece kept its original cone.  Consumers treat any nonzero count as
   "output is correct but QoR is not what the script asked for". *)
let degraded t ~pass ~reason ~detail =
  match t with
  | Null -> ()
  | Sink s ->
    s.rev_events <-
      Degraded { t = now s; flow = s.flow; pass; reason; detail }
      :: s.rev_events

(* -- JSONL codec --

   One event object per line, preceded by one meta line stamping the
   producing run.  The decoder is the encoder's inverse.  Unknown events
   and keys are skipped: the meta line, and in older traces the "race"
   and "node" lines, the "hists" object of "metrics" lines and every
   "gc" key but the two word counts, so older traces stay readable by
   newer reports.  An older "metrics" line reads as a counters event
   holding its counters and then its gauges. *)

let json_of_gc gc =
  Json.Obj
    [
      ("minor_words", Json.Num gc.minor_words);
      ("major_words", Json.Num gc.major_words);
    ]

let json_of_event e =
  let ev name t flow fields =
    Json.Obj
      (("event", Json.Str name) :: ("t", Json.Num t) :: ("flow", Json.Str flow)
      :: fields)
  in
  let str k v = (k, Json.Str v) and int k v = (k, Json.int v) in
  match e with
  | Pass_begin { t; flow; pass; index; gates; depth } ->
    ev "pass_begin" t flow
      [ str "pass" pass; int "index" index; int "gates" gates; int "depth" depth ]
  | Pass_end { t; flow; pass; index; gates; depth; elapsed; gc } ->
    ev "pass_end" t flow
      [
        str "pass" pass; int "index" index; int "gates" gates;
        int "depth" depth; ("elapsed", Json.Num elapsed); ("gc", json_of_gc gc);
      ]
  | Counters { t; flow; algo; counters } ->
    ev "counters" t flow [ str "algo" algo; ("counters", Json.ints counters) ]
  | Degraded { t; flow; pass; reason; detail } ->
    ev "degraded" t flow
      [ str "pass" pass; str "reason" reason; str "detail" detail ]

let event_of_json j =
  let num k = Option.value ~default:0.0 (Json.num_member k j) in
  let int k = Option.value ~default:0 (Json.int_member k j) in
  let str k = Option.value ~default:"" (Json.str_member k j) in
  let ints k =
    match Json.member k j with
    | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun f -> (k, int_of_float f)) (Json.to_num v))
        kvs
    | _ -> []
  in
  let t = num "t" and flow = str "flow" in
  match Json.str_member "event" j with
  | Some "pass_begin" ->
    Some
      (Pass_begin
         { t; flow; pass = str "pass"; index = int "index"; gates = int "gates";
           depth = int "depth" })
  | Some "pass_end" ->
    let gc =
      match Json.member "gc" j with
      | Some g ->
        let num k = Option.value ~default:0.0 (Json.num_member k g) in
        { minor_words = num "minor_words"; major_words = num "major_words" }
      | None -> gc_zero
    in
    Some
      (Pass_end
         { t; flow; pass = str "pass"; index = int "index"; gates = int "gates";
           depth = int "depth"; elapsed = num "elapsed"; gc })
  | Some "counters" ->
    Some (Counters { t; flow; algo = str "algo"; counters = ints "counters" })
  | Some "metrics" ->
    Some
      (Counters
         { t; flow; algo = str "algo";
           counters = ints "counters" @ ints "gauges" })
  | Some "degraded" ->
    Some
      (Degraded
         { t; flow; pass = str "pass"; reason = str "reason";
           detail = str "detail" })
  | _ -> None

let meta_json () =
  Json.Obj
    ((("event", Json.Str "meta") :: Runmeta.json_fields ())
    @ [ ("generated_unix", Json.Num (Unix.time ())) ])

let write_file t path =
  Out_channel.with_open_text path (fun oc ->
      let line j =
        output_string oc (Json.render j);
        output_char oc '\n'
      in
      line (meta_json ());
      List.iter (fun e -> line (json_of_event e)) (events t))

(* Rebuild a trace from a JSONL file; raises [Json.Parse_error] on a
   malformed line. *)
let read_file path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         if String.trim line = "" then None else event_of_json (Json.parse line))
  |> of_events

(* -- per-pass summary -- *)

type pass_row = {
  row_flow : string;
  row_pass : string;
  row_index : int;
  gates_before : int;
  gates_after : int;
  depth_before : int;
  depth_after : int;
  row_elapsed : float;
  row_gc : gc_delta;
  row_counters : (string * counters) list;  (* algo -> counters, in order *)
  row_sat_conflicts : int;     (* SAT kernel work attributed to the span *)
  row_sat_propagations : int;
  row_degraded : int;  (* degradation markers attributed to the span *)
}

(* Events from child sinks (partition workers, portfolio domains) carry
   extended flow labels like ["opt/w0"] while the enclosing span may live
   under the parent label: resolve to the nearest open span of the event's
   flow or of an ancestor flow. *)
let rec find_ancestor_span pending flow =
  match Hashtbl.find_opt pending flow with
  | Some _ as hit -> Option.map (fun row -> (flow, row)) hit
  | None -> (
    match String.rindex_opt flow '/' with
    | Some i -> find_ancestor_span pending (String.sub flow 0 i)
    | None -> if flow = "" then None else find_ancestor_span pending "")

(* Pair begin/end events into rows.  Spans never nest within one flow, so a
   single pending slot per flow label suffices; counter and degradation
   events attach to the nearest open span ([find_ancestor_span]).  A
   counters event's [solver_*] keys add to the row's SAT totals instead of
   its counters column. *)
let summarize t : pass_row list =
  let pending : (string, pass_row) Hashtbl.t = Hashtbl.create 4 in
  let rows = ref [] in
  List.iter
    (function
      | Pass_begin { flow; pass; index; gates; depth; _ } ->
        Hashtbl.replace pending flow
          {
            row_flow = flow;
            row_pass = pass;
            row_index = index;
            gates_before = gates;
            gates_after = gates;
            depth_before = depth;
            depth_after = depth;
            row_elapsed = 0.0;
            row_gc = gc_zero;
            row_counters = [];
            row_sat_conflicts = 0;
            row_sat_propagations = 0;
            row_degraded = 0;
          }
      | Counters { flow; algo; counters; _ } -> (
        match find_ancestor_span pending flow with
        | Some (key, row) ->
          let solver, rest =
            List.partition
              (fun (k, _) -> String.starts_with ~prefix:"solver_" k)
              counters
          in
          let sat k = Option.value ~default:0 (List.assoc_opt k solver) in
          Hashtbl.replace pending key
            {
              row with
              row_counters =
                (if rest = [] then row.row_counters
                 else row.row_counters @ [ (algo, rest) ]);
              row_sat_conflicts =
                row.row_sat_conflicts + sat "solver_conflicts";
              row_sat_propagations =
                row.row_sat_propagations + sat "solver_propagations";
            }
        | None -> ())
      | Degraded { flow; _ } -> (
        match find_ancestor_span pending flow with
        | Some (key, row) ->
          Hashtbl.replace pending key
            { row with row_degraded = row.row_degraded + 1 }
        | None -> ())
      | Pass_end { flow; gates; depth; elapsed; gc; _ } -> (
        match Hashtbl.find_opt pending flow with
        | Some row ->
          Hashtbl.remove pending flow;
          rows :=
            {
              row with
              gates_after = gates;
              depth_after = depth;
              row_elapsed = elapsed;
              row_gc = gc;
            }
            :: !rows
        | None -> ()))
    (events t);
  List.rev !rows

let pp_counters fmt cs =
  Format.fprintf fmt "%s"
    (String.concat " "
       (List.map
          (fun (algo, counters) ->
            algo ^ "("
            ^ String.concat ","
                (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters)
            ^ ")")
          cs))

(* The SAT/degradation annotation appended to a row's counters column:
   nothing when the pass did no SAT work, so pure-rewrite tables stay
   clean. *)
let pp_sat fmt (conflicts, propagations, degraded) =
  if conflicts <> 0 || propagations <> 0 then
    Format.fprintf fmt " sat(confl=%d,props=%d)" conflicts propagations;
  if degraded > 0 then Format.fprintf fmt " DEGRADED(%d)" degraded

(* All degradation markers in event order, whether or not a span was open
   to attribute them to (CLI-level markers land outside any span). *)
let degraded_events t =
  List.filter_map
    (function
      | Degraded { pass; reason; detail; _ } -> Some (pass, reason, detail)
      | _ -> None)
    (events t)

let degraded_count t = List.length (degraded_events t)

(* The per-pass table ([opt --stats], [report --trace]): one row per span
   plus a totals row.  The [%] column is each pass's share of the summed
   wall time, so the table answers "where did the time go" without a
   calculator; minor/major words are the GC work the pass caused, and the
   counters column carries the pass's decision counters, the SAT work
   attributed to it and its degradation count.  Degradation markers are
   spelled out under the table. *)
let pp_summary fmt t =
  let rows = summarize t in
  if rows = [] then Format.fprintf fmt "trace: no spans recorded@."
  else begin
    let total = List.fold_left (fun acc r -> acc +. r.row_elapsed) 0.0 rows in
    let pct e = if total <= 0.0 then 0.0 else 100.0 *. e /. total in
    Format.fprintf fmt
      "%4s  %-16s %-13s | %7s %7s %5s | %5s %5s | %8s %5s | %10s %10s | %s@."
      "#" "flow" "pass" "gates" "->" "dG" "depth" "->" "time" "%" "minor_w"
      "major_w" "counters";
    List.iter
      (fun r ->
        Format.fprintf fmt
          "%4d  %-16s %-13s | %7d %7d %5d | %5d %5d | %7.3fs %4.1f%% | %10.0f \
           %10.0f | %a%a@."
          r.row_index r.row_flow r.row_pass r.gates_before r.gates_after
          (r.gates_after - r.gates_before)
          r.depth_before r.depth_after r.row_elapsed (pct r.row_elapsed)
          r.row_gc.minor_words r.row_gc.major_words pp_counters r.row_counters
          pp_sat
          (r.row_sat_conflicts, r.row_sat_propagations, r.row_degraded))
      rows;
    let sum f = List.fold_left (fun a r -> a +. f r) 0.0 rows in
    let sumi f = List.fold_left (fun a r -> a + f r) 0 rows in
    let first = List.hd rows and last = List.nth rows (List.length rows - 1) in
    Format.fprintf fmt
      "%4s  %-16s %-13s | %7d %7d %5d | %5d %5d | %7.3fs %4.1f%% | %10.0f \
       %10.0f |%a@."
      "" "total" "" first.gates_before last.gates_after
      (sumi (fun r -> r.gates_after - r.gates_before))
      first.depth_before last.depth_after total (pct total)
      (sum (fun r -> r.row_gc.minor_words))
      (sum (fun r -> r.row_gc.major_words))
      pp_sat
      ( sumi (fun r -> r.row_sat_conflicts),
        sumi (fun r -> r.row_sat_propagations),
        sumi (fun r -> r.row_degraded) )
  end;
  let degs = degraded_events t in
  if degs <> [] then begin
    Format.fprintf fmt "degraded: %d event(s)@." (List.length degs);
    List.iter
      (fun (pass, reason, detail) ->
        Format.fprintf fmt "  %-16s %-10s %s@." pass reason detail)
      degs
  end
