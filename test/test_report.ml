(* Tests for the JSON codec and its consumers: the minimal JSON parser,
   the JSONL round-trip through [Trace.read_file], the typed run-metadata
   header, and the Chrome trace-event export (valid JSON, per-track
   timestamp monotonicity). *)

module T = Obs.Trace
module J = Obs.Json

(* -- the JSON parser -- *)

let test_json_parser () =
  (match J.parse "  {\"a\": 1, \"b\": [true, false, null], \"c\": \"x\\ny\"} " with
  | J.Obj kvs ->
    Alcotest.(check int) "object size" 3 (List.length kvs);
    Alcotest.(check (option (float 0.0))) "int member" (Some 1.0)
      (Option.bind (List.assoc_opt "a" kvs) J.to_num);
    (match List.assoc_opt "b" kvs with
    | Some (J.Arr [ J.Bool true; J.Bool false; J.Null ]) -> ()
    | _ -> Alcotest.fail "array member");
    Alcotest.(check (option string)) "escaped string" (Some "x\ny")
      (Option.bind (List.assoc_opt "c" kvs) J.to_string)
  | _ -> Alcotest.fail "expected object");
  (match J.parse "-12.5e1" with
  | J.Num f -> Alcotest.(check (float 1e-9)) "scientific number" (-125.0) f
  | _ -> Alcotest.fail "expected number");
  (match J.parse "\"\\u0041\\\\\\\"\"" with
  | J.Str s -> Alcotest.(check string) "unicode + escapes" "A\\\"" s
  | _ -> Alcotest.fail "expected string");
  List.iter
    (fun bad ->
      let rejected =
        match J.parse bad with
        | exception J.Parse_error _ -> true
        | _ -> false
      in
      Alcotest.(check bool) ("rejects " ^ bad) true rejected)
    [ "{"; "[1,"; "tru"; "\"unterminated"; "{\"a\" 1}"; "1 2" ]

(* -- JSONL round-trip through the offline loader -- *)

(* Every [Trace.event] constructor, in two child flows. *)
let sample_trace () =
  let trace = T.create ~flow:"root" () in
  let a = T.child trace ~flow:"a" in
  let b = T.child trace ~flow:"b" in
  let gc = { T.minor_words = 1234.0; major_words = 56.0 } in
  List.iter
    (fun tr ->
      T.pass_begin tr ~pass:"rw" ~index:0 ~gates:100 ~depth:10;
      T.report tr ~algo:"rewrite" [ ("tried", 5) ];
      T.report tr ~algo:"cec" [ ("calls", 2); ("solver_conflicts", 11) ];
      T.pass_end tr ~gc ~pass:"rw" ~index:0 ~gates:90 ~depth:9 ~elapsed:0.25 ();
      T.pass_begin tr ~pass:"bz" ~index:1 ~gates:90 ~depth:9;
      T.degraded tr ~pass:"bz" ~reason:"deadline" ~detail:"budget \"1s\"\tleft";
      T.pass_end tr ~pass:"bz" ~index:1 ~gates:90 ~depth:8 ~elapsed:0.5 ())
    [ a; b ];
  T.merge trace [ a; b ];
  trace

(* The event's constructor, its value with times zeroed, and the times
   themselves (the codec rounds them to microseconds). *)
let split_times (e : T.event) =
  match e with
  | T.Pass_begin r -> ("pass_begin", T.Pass_begin { r with t = 0.0 }, [ r.t ])
  | T.Pass_end r ->
    ( "pass_end",
      T.Pass_end { r with t = 0.0; elapsed = 0.0 },
      [ r.t; r.elapsed ] )
  | T.Counters r -> ("counters", T.Counters { r with t = 0.0 }, [ r.t ])
  | T.Degraded r -> ("degraded", T.Degraded { r with t = 0.0 }, [ r.t ])

let test_trace_roundtrip () =
  let trace = sample_trace () in
  let path = Filename.temp_file "genlog_report" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      T.write_file trace path;
      let orig = T.events trace and reloaded = T.events (T.read_file path) in
      Alcotest.(check int) "event count survives" (List.length orig)
        (List.length reloaded);
      List.iter2
        (fun a b ->
          let _, a, ta = split_times a and _, b, tb = split_times b in
          Alcotest.(check bool) "event equal" true (a = b);
          Alcotest.(check (list (float 1e-6))) "times" ta tb)
        orig reloaded;
      (* the sample covers every constructor *)
      Alcotest.(check (list string)) "constructors covered"
        [ "counters"; "degraded"; "pass_begin"; "pass_end" ]
        (List.sort_uniq compare
           (List.map (fun e -> let c, _, _ = split_times e in c) orig)))

(* A digits-only commit hash is still a string in the trace meta line and
   the BENCH header (typed fields, not quoting by value shape). *)
let test_runmeta_commit_is_string () =
  let saved = Sys.getenv_opt "GENLOG_GIT_COMMIT" in
  Unix.putenv "GENLOG_GIT_COMMIT" "0123456";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "GENLOG_GIT_COMMIT" (Option.value ~default:"" saved))
    (fun () ->
      let path = Filename.temp_file "genlog_meta" ".jsonl" in
      T.write_file (T.of_events []) path;
      let meta = In_channel.with_open_text path input_line in
      Sys.remove path;
      let bench =
        Obs.Bench_json.to_string "t"
          [ [ ("benchmark", Obs.Bench_json.Str "ctrl");
              ("stage", Obs.Bench_json.Str "generic");
              ("nodes", Obs.Bench_json.Int 150) ] ]
      in
      List.iter
        (fun (what, doc) ->
          Alcotest.(check bool) (what ^ " git_commit") true
            (J.member "git_commit" (J.parse doc) = Some (J.Str "0123456")))
        [ ("meta line", meta); ("bench header", bench) ];
      Alcotest.(check int) "bench row survives" 1
        (List.length (Obs.Bench_json.rows (J.parse bench))))

(* -- Chrome trace-event export -- *)

let test_chrome_export () =
  let trace = sample_trace () in
  let s = Obs.Chrome.to_string trace in
  let j = J.parse s in
  let events =
    match Option.bind (J.member "traceEvents" j) J.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "has events" true (List.length events > 0);
  (* runmeta footer *)
  (match J.member "otherData" j with
  | Some other ->
    Alcotest.(check bool) "otherData has schema" true
      (J.int_member "schema" other <> None)
  | None -> Alcotest.fail "no otherData");
  (* split metadata from timed events *)
  let is_meta e = J.str_member "ph" e = Some "M" in
  let meta, timed = List.partition is_meta events in
  (* one process_name + one thread_name per flow with events (a, b; the
     root sink itself logged nothing) *)
  Alcotest.(check int) "metadata events" 3 (List.length meta);
  List.iter
    (fun e ->
      Alcotest.(check bool) "timed event has ts" true
        (J.num_member "ts" e <> None))
    timed;
  (* ts monotone per tid — the Perfetto-friendliness invariant *)
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun e ->
      let tid = Option.get (J.int_member "tid" e) in
      let ts = Option.get (J.num_member "ts" e) in
      let prev = Option.value ~default:neg_infinity (Hashtbl.find_opt by_tid tid) in
      Alcotest.(check bool)
        (Printf.sprintf "tid %d monotone" tid)
        true (ts >= prev);
      Hashtbl.replace by_tid tid ts)
    timed;
  (* complete events carry duration and the pass args *)
  let spans =
    List.filter (fun e -> J.str_member "ph" e = Some "X") timed
  in
  Alcotest.(check int) "one span per pass" 4 (List.length spans);
  List.iter
    (fun e ->
      Alcotest.(check bool) "span has dur" true (J.num_member "dur" e <> None);
      match J.member "args" e with
      | Some args ->
        Alcotest.(check bool) "span args carry gates" true
          (J.int_member "gates_after" args <> None)
      | None -> Alcotest.fail "span without args")
    spans

let suite =
  [
    Alcotest.test_case "json parser" `Quick test_json_parser;
    Alcotest.test_case "trace jsonl round-trip" `Quick test_trace_roundtrip;
    Alcotest.test_case "runmeta commit is a string" `Quick
      test_runmeta_commit_is_string;
    Alcotest.test_case "chrome export golden" `Quick test_chrome_export;
  ]
