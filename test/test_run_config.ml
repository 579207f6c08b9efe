(* The typed run configuration: builder defaults, the environment
   override layer, and the JSON round-trip that makes it a job spec. *)

module RC = Flow.Run_config

let cfg =
  Alcotest.testable (fun fmt c -> Format.pp_print_string fmt (RC.to_json c)) ( = )

(* The key of the SAT portfolio width option, since removed: old job specs
   may still carry it. *)
let retired_key = "sat_jobs"

let test_json_round_trip () =
  let c =
    RC.make ~representation:RC.Xmg ~script:"bz; rw; rf" ~trace_path:"t.jsonl"
      ~stats:true ~sample:10 ~partition:500 ~jobs:3 ~budget:1000
      ~kernel:"legacy" ~cost:"depth" ~cache:"/tmp/store.glxs" ~timeout:1.5
      ~retries:2 ~faults:"parmap.job:0.1,sat.solve:1:2" ()
  in
  let json = RC.to_json c in
  Alcotest.(check bool)
    "retired key not emitted" true
    (Obs.Json.member retired_key (Obs.Json.parse json) = None);
  match RC.of_json_string json with
  | Ok c' -> Alcotest.check cfg "round-trips" c c'
  | Error e -> Alcotest.fail e

let test_json_defaults () =
  (* missing fields fall back to the builder defaults; unknown keys, such
     as the retired one, are ignored *)
  List.iter
    (fun spec ->
      match RC.of_json_string spec with
      | Ok c -> Alcotest.check cfg (spec ^ " is default") RC.default c
      | Error e -> Alcotest.fail e)
    [ "{}"; Printf.sprintf "{%S:2}" retired_key ]

let test_json_rejects_unknown () =
  (match RC.of_json_string "{\"representation\":\"zzz\"}" with
  | Ok _ -> Alcotest.fail "accepted unknown representation"
  | Error _ -> ());
  (match RC.of_json_string "{\"kernel\":\"quantum\"}" with
  | Ok _ -> Alcotest.fail "accepted unknown kernel"
  | Error _ -> ());
  (match RC.of_json_string "{\"cost\":\"bogus\"}" with
  | Ok _ -> Alcotest.fail "accepted unknown cost spec"
  | Error _ -> ());
  match RC.of_json_string "[1,2]" with
  | Ok _ -> Alcotest.fail "accepted non-object"
  | Error _ -> ()

let with_env kvs f =
  let saved = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) kvs in
  List.iter (fun (k, v) -> Unix.putenv k v) kvs;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (k, old) -> Unix.putenv k (Option.value ~default:"" old))
        saved)
    f

let test_env_overrides () =
  with_env
    [
      ("GENLOG_SAMPLE", "3");
      ("GENLOG_PARTITION", "250");
      ("GENLOG_CACHE", "/tmp/env_store.glxs");
      ("GENLOG_SAT_KERNEL", "legacy");
      ("GENLOG_JOBS", "not-a-number");
      ("GENLOG_TIMEOUT", "2.5");
      ("GENLOG_RETRIES", "3");
      ("GENLOG_FAULTS", "store.append:1:1");
    ]
    (fun () ->
      let c = RC.of_env () in
      Alcotest.(check int) "sample from env" 3 c.RC.sample;
      Alcotest.(check int) "partition from env" 250 c.RC.partition;
      Alcotest.(check (option string))
        "cache from env"
        (Some "/tmp/env_store.glxs")
        c.RC.cache;
      Alcotest.(check string) "kernel from env" "legacy" c.RC.kernel;
      Alcotest.(check (float 1e-9)) "timeout from env" 2.5 c.RC.timeout;
      Alcotest.(check int) "retries from env" 3 c.RC.retries;
      Alcotest.(check (option string))
        "faults from env"
        (Some "store.append:1:1")
        c.RC.faults;
      (* unparsable integers keep the default rather than failing *)
      Alcotest.(check int) "bad int ignored" RC.default.RC.jobs c.RC.jobs)

let test_env_cost () =
  Alcotest.(check string) "default cost is area" "area" RC.default.RC.cost;
  with_env
    [ ("GENLOG_COST", "depth") ]
    (fun () ->
      Alcotest.(check string) "cost from env" "depth" (RC.of_env ()).RC.cost);
  with_env
    [ ("GENLOG_COST", "bogus") ]
    (fun () ->
      (* invalid specs are ignored, like unparsable integers *)
      Alcotest.(check string) "bad cost ignored" "area" (RC.of_env ()).RC.cost);
  (* syntax-only validation: a weights spec round-trips through JSON even
     when the file is not present on the consuming machine *)
  let c = RC.make ~cost:"weights:/nonexistent/w.txt" () in
  match RC.of_json_string (RC.to_json c) with
  | Ok c' -> Alcotest.check cfg "weights spec round-trips" c c'
  | Error e -> Alcotest.fail e

let test_env_layering () =
  (* env overrides defaults, explicit values override env *)
  with_env
    [ ("GENLOG_BUDGET", "7") ]
    (fun () ->
      let base = RC.of_env () in
      Alcotest.(check int) "env wins over default" 7 base.RC.budget;
      let explicit = { base with RC.budget = 2 } in
      Alcotest.(check int) "explicit wins over env" 2 explicit.RC.budget)

let test_solver_config () =
  let legacy = RC.solver_config { RC.default with RC.kernel = "legacy" } in
  let modern = RC.solver_config RC.default in
  Alcotest.(check string)
    "legacy kernel" Satkit.Solver.legacy_config.Satkit.Solver.name
    legacy.Satkit.Solver.name;
  Alcotest.(check string)
    "modern kernel" Satkit.Solver.default_config.Satkit.Solver.name
    modern.Satkit.Solver.name

let test_representation_strings () =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        "round-trips" true
        (RC.representation_of_string (RC.representation_to_string r) = Some r))
    [ RC.Aig; RC.Mig; RC.Xag; RC.Xmg ];
  Alcotest.(check bool)
    "unknown rejected" true
    (RC.representation_of_string "klut" = None)

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_round_trip;
    Alcotest.test_case "json defaults" `Quick test_json_defaults;
    Alcotest.test_case "json rejects unknown" `Quick test_json_rejects_unknown;
    Alcotest.test_case "env overrides" `Quick test_env_overrides;
    Alcotest.test_case "env cost spec" `Quick test_env_cost;
    Alcotest.test_case "env layering" `Quick test_env_layering;
    Alcotest.test_case "solver config" `Quick test_solver_config;
    Alcotest.test_case "representation strings" `Quick
      test_representation_strings;
  ]
