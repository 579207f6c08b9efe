(* Chrome trace-event export: render a merged trace as the JSON object
   format chrome://tracing and Perfetto load natively, so a portfolio run
   reads as a flamegraph timeline without any custom viewer.

   Mapping:
   - every distinct [flow] label becomes one thread track ([tid], named
     via a "thread_name" metadata event) — the portfolio's domains show up
     as parallel tracks under one process;
   - each pass span becomes a complete event (ph "X") anchored at the
     span's [pass_begin] timestamp with the measured duration, carrying
     gates/depth before/after and the GC delta as [args];
   - counters events and degradation markers become thread-scoped
     instant events (ph "i") at their timestamp.

   Timestamps are microseconds (the format's unit).  Complete events are
   anchored at their *begin* time while they are paired at their end
   event, so the output is stable-sorted by timestamp before writing —
   [ts] is monotone over the whole file and therefore per track. *)

let us t = t *. 1e6

(* Assign tids by first appearance so track order mirrors flow start
   order; the root flow "" renders as "main". *)
let flow_tracks events =
  let tids = Hashtbl.create 8 in
  let order = ref [] in
  let see flow =
    if not (Hashtbl.mem tids flow) then begin
      Hashtbl.replace tids flow (Hashtbl.length tids + 1);
      order := flow :: !order
    end
  in
  List.iter
    (function
      | Trace.Pass_begin { flow; _ }
      | Trace.Pass_end { flow; _ }
      | Trace.Counters { flow; _ }
      | Trace.Degraded { flow; _ } -> see flow)
    events;
  (tids, List.rev !order)

let track_name flow = if flow = "" then "main" else flow

let ints = List.map (fun (k, v) -> (k, Json.int v))

(* Render every event as a JSON object, metadata events (no timestamp)
   first, then the timed events stable-sorted by timestamp. *)
let events_json (t : Trace.t) =
  let events = Trace.events t in
  let tids, order = flow_tracks events in
  let tid flow = Hashtbl.find tids flow in
  let obj ~name ~ph ~tid fields args =
    Json.Obj
      ((("name", Json.Str name) :: ("ph", Json.Str ph) :: fields)
      @ [ ("pid", Json.int 1); ("tid", Json.int tid); ("args", Json.Obj args) ])
  in
  let meta =
    obj ~name:"process_name" ~ph:"M" ~tid:0 [] [ ("name", Json.Str "genlog") ]
    :: List.map
         (fun flow ->
           obj ~name:"thread_name" ~ph:"M" ~tid:(tid flow) []
             [ ("name", Json.Str (track_name flow)) ])
         order
  in
  (* spans never nest within one flow, so one pending begin per flow
     pairs every end with its begin *)
  let pending : (string, float * int * int) Hashtbl.t = Hashtbl.create 8 in
  let timed = ref [] in
  let instant t flow ~name ~cat args =
    timed :=
      ( t,
        obj ~name ~ph:"i" ~tid:(tid flow)
          [ ("cat", Json.Str cat); ("s", Json.Str "t"); ("ts", Json.Num (us t)) ]
          args )
      :: !timed
  in
  List.iter
    (function
      | Trace.Pass_begin { t; flow; gates; depth; _ } ->
        Hashtbl.replace pending flow (t, gates, depth)
      | Trace.Pass_end { t; flow; pass; gates; depth; elapsed; gc; _ } ->
        let t0, gates0, depth0 =
          match Hashtbl.find_opt pending flow with
          | Some p ->
            Hashtbl.remove pending flow;
            p
          | None -> (t -. elapsed, gates, depth)
        in
        timed :=
          ( t0,
            obj ~name:pass ~ph:"X" ~tid:(tid flow)
              [
                ("cat", Json.Str "pass"); ("ts", Json.Num (us t0));
                ("dur", Json.Num (us elapsed));
              ]
              (ints
                 [
                   ("gates_before", gates0); ("gates_after", gates);
                   ("depth_before", depth0); ("depth_after", depth);
                 ]
              @ [
                  ("gc_minor_words", Json.Num gc.Trace.minor_words);
                  ("gc_major_words", Json.Num gc.Trace.major_words);
                ]) )
          :: !timed
      | Trace.Counters { t; flow; algo; counters } ->
        instant t flow ~name:algo ~cat:"counters" (ints counters)
      | Trace.Degraded { t; flow; pass; reason; detail } ->
        (* an instant marker so degradations are visible on the timeline *)
        instant t flow ~name:("degraded: " ^ reason) ~cat:"degraded"
          [ ("pass", Json.Str pass); ("detail", Json.Str detail) ])
    events;
  let timed =
    List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !timed)
  in
  meta @ List.map snd timed

(* One event per line, so a large export stays greppable. *)
let to_string t =
  "{\"traceEvents\":[\n"
  ^ String.concat ",\n" (List.map Json.render (events_json t))
  ^ "\n],\"displayTimeUnit\":\"ms\",\"otherData\":"
  ^ Json.render (Json.Obj (Runmeta.json_fields ()))
  ^ "}\n"

let write_file t path =
  Out_channel.with_open_text path (fun oc -> output_string oc (to_string t))
