(* Tests for the fault-tolerant execution layer: the deterministic
   injection registry itself, per-job isolation and retry in Parmap, the
   engine's checkpoint/degrade path, CEC's anomaly fallback, partition
   failure containment, and a seeded end-to-end fuzz asserting the
   invariant the whole layer exists for — every run ends in either a
   CEC-equivalent output or a clean, marked degradation. *)

open Network
module Fault = Flow.Fault
module F = Flow.Engine.Make (Aig)
module P = Flow.Partition.Make (Aig)
module Cec_aa = Algo.Cec.Make (Aig) (Aig)
module Copy = Convert.Make (Aig) (Aig)
module S = Lsgen.Suite.Make (Aig)
module G = Gen.Make (Aig)

(* Every test arms its own spec and disarms on the way out, so no fault
   configuration leaks into other suites (or in from GENLOG_FAULTS). *)
let with_faults ?seed spec f =
  (match Fault.configure ?seed spec with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Fault.disable f

let check_equiv msg a b =
  match Cec_aa.check a b with
  | Algo.Cec.Equivalent -> ()
  | Algo.Cec.Counterexample _ -> Alcotest.fail (msg ^ ": not equivalent")
  | Algo.Cec.Unknown -> Alcotest.fail (msg ^ ": cec unknown")

(* -- registry -- *)

let test_disabled_noop () =
  Fault.disable ();
  Alcotest.(check bool) "inactive" false (Fault.active ());
  Alcotest.(check bool) "hit is false" false (Fault.hit "parmap.job");
  Fault.fire "parmap.job" (* must not raise *)

let test_parse_errors () =
  List.iter
    (fun spec ->
      match Fault.configure spec with
      | Ok () -> Alcotest.failf "accepted %S" spec
      | Error _ -> ())
    [ "parmap.job"; "p:2.0"; "p:-1"; "p:0.5:-3"; ":0.5"; "p:0.5:x" ];
  List.iter
    (fun spec ->
      match Fault.configure spec with
      | Ok () -> Fault.disable ()
      | Error e -> Alcotest.failf "rejected %S: %s" spec e)
    [ "p:0"; "p:1"; "p:0.25"; "a:0.1,b:1:3"; " a:0.5 , b:0 "; "" ]

let test_deterministic_sequence () =
  let draw_seq seed n =
    with_faults ~seed "p:0.5" (fun () ->
        List.init n (fun _ -> Fault.hit "p"))
  in
  let a = draw_seq 42 200 in
  Alcotest.(check (list bool)) "same seed, same sequence" a (draw_seq 42 200);
  Alcotest.(check bool)
    "different seed differs" true
    (a <> draw_seq 43 200);
  Alcotest.(check bool)
    "mid rate in band" true
    (let fires = List.length (List.filter Fun.id a) in
     fires > 50 && fires < 150)

let test_rate_extremes () =
  with_faults "p:0" (fun () ->
      for _ = 1 to 100 do
        Alcotest.(check bool) "rate 0 never fires" false (Fault.hit "p")
      done);
  with_faults "p:1" (fun () ->
      for _ = 1 to 100 do
        Alcotest.(check bool) "rate 1 always fires" true (Fault.hit "p")
      done);
  with_faults "p:1" (fun () ->
      Alcotest.(check bool) "unknown point never fires" false (Fault.hit "q"))

let test_max_fires_cap () =
  with_faults "p:1:3" (fun () ->
      let fires = List.init 10 (fun _ -> Fault.hit "p") in
      Alcotest.(check (list bool))
        "exactly the first 3 draws fire"
        [ true; true; true; false; false; false; false; false; false; false ]
        fires;
      match Fault.counts () with
      | [ ("p", draws, fired) ] ->
        Alcotest.(check int) "draws counted" 10 draws;
        Alcotest.(check int) "fires clamped to cap" 3 fired;
        Alcotest.(check bool) "fired()" true (Fault.fired ())
      | _ -> Alcotest.fail "counts shape")

let test_fire_raises () =
  with_faults "p:1:1" (fun () ->
      (match Fault.fire "p" with
      | () -> Alcotest.fail "expected Injected"
      | exception Fault.Injected "p" -> ());
      Fault.fire "p" (* cap reached: second call is a no-op *))

(* -- parmap isolation -- *)

let test_parmap_isolation () =
  let items = Array.init 8 Fun.id in
  let results, _ =
    Flow.Parmap.map_results ~jobs:3
      ~init:(fun _ -> ())
      ~f:(fun () i -> if i = 5 then failwith "boom" else i * i)
      items
  in
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) "good item" (i * i) v
      | Error (e : Flow.Parmap.job_error) ->
        Alcotest.(check int) "failing index preserved" 5 e.err_index;
        Alcotest.(check int) "one attempt" 1 e.err_attempts;
        Alcotest.(check bool)
          "exception preserved" true
          (match e.err_exn with
          | Failure m -> String.equal m "boom"
          | _ -> false))
    results;
  let bad = Array.to_list results |> List.filter Result.is_error in
  Alcotest.(check int) "exactly one failure" 1 (List.length bad)

let test_parmap_retry () =
  (* per-item failure counters: each item fails (attempts-needed - 1)
     times before succeeding, so retry budget 2 rescues them all *)
  let tries = Array.init 6 (fun _ -> Atomic.make 0) in
  let f () i =
    let a = Atomic.fetch_and_add tries.(i) 1 in
    if a < i mod 3 then failwith "transient" else i
  in
  let results, _ =
    Flow.Parmap.map_results ~jobs:2 ~retries:2 ~init:(fun _ -> ()) ~f
      (Array.init 6 Fun.id)
  in
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) "value" i v
      | Error _ -> Alcotest.failf "item %d not rescued by retry" i)
    results;
  (* with retries:0 the same workload loses items needing >1 attempt *)
  Array.iter (fun c -> Atomic.set c 0) tries;
  let results0, _ =
    Flow.Parmap.map_results ~jobs:2 ~init:(fun _ -> ()) ~f
      (Array.init 6 Fun.id)
  in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "item %d" i)
        (i mod 3 = 0) (Result.is_ok r))
    results0

let test_parmap_injected_fault_isolated () =
  with_faults "parmap.job:1:2" (fun () ->
      let results, _ =
        Flow.Parmap.map_results ~jobs:1
          ~init:(fun _ -> ())
          ~f:(fun () i -> i)
          (Array.init 5 Fun.id)
      in
      let failed =
        Array.to_list results
        |> List.filter (fun r ->
               match r with
               | Error { Flow.Parmap.err_exn = Fault.Injected "parmap.job"; _ }
                 ->
                 true
               | _ -> false)
      in
      Alcotest.(check int) "cap bounds the damage" 2 (List.length failed);
      (* the same spec with a retry budget fires the capped faults into
         retries and every item still succeeds *)
      Fault.disable ();
      (match Fault.configure "parmap.job:1:2" with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let results, _ =
        Flow.Parmap.map_results ~jobs:1 ~retries:2
          ~init:(fun _ -> ())
          ~f:(fun () i -> i)
          (Array.init 5 Fun.id)
      in
      Array.iter
        (fun r ->
          Alcotest.(check bool) "retry absorbs the fault" true (Result.is_ok r))
        results)

let test_parmap_stop_cancels () =
  let results, _ =
    Flow.Parmap.map_results ~jobs:1
      ~stop:(fun () -> true)
      ~init:(fun _ -> ())
      ~f:(fun () i -> i)
      (Array.init 3 Fun.id)
  in
  Array.iter
    (fun r ->
      match r with
      | Error { Flow.Parmap.err_exn = Flow.Parmap.Cancelled; err_attempts = 0; _ }
        ->
        ()
      | _ -> Alcotest.fail "expected Cancelled with 0 attempts")
    results

(* -- engine checkpoint / degrade -- *)

let test_engine_pass_exception_degrades () =
  let baseline = S.build "ctrl" in
  with_faults "engine.pass:1" (fun () ->
      let env = Flow.Engine.make_env Flow.Run_config.Aig in
      let r, degs =
        F.run_script_safe env (Copy.convert baseline) "bz; rw; rf"
      in
      Alcotest.(check int) "every command degraded" 3 (List.length degs);
      List.iter
        (fun d ->
          Alcotest.(check string) "reason" "exception" d.Flow.Engine.d_reason)
        degs;
      check_equiv "best-so-far is the input" baseline r)

let test_engine_deadline_degrades () =
  let baseline = S.build "ctrl" in
  let env = Flow.Engine.make_env Flow.Run_config.Aig in
  let r, degs =
    F.run_script_safe env
      ~deadline:(Unix.gettimeofday () -. 1.)
      (Copy.convert baseline) "bz; rw; rf"
  in
  (match degs with
  | [ d ] -> Alcotest.(check string) "reason" "deadline" d.Flow.Engine.d_reason
  | _ -> Alcotest.failf "expected one deadline marker, got %d"
           (List.length degs));
  check_equiv "deadline returns valid network" baseline r

let test_engine_stop_degrades () =
  let baseline = S.build "ctrl" in
  let env = Flow.Engine.make_env Flow.Run_config.Aig in
  let r, degs =
    F.run_script_safe env
      ~stop:(fun () -> true)
      (Copy.convert baseline) "bz; rw"
  in
  (match degs with
  | [ d ] ->
    Alcotest.(check string) "reason" "interrupt" d.Flow.Engine.d_reason
  | _ -> Alcotest.fail "expected one interrupt marker");
  check_equiv "interrupt returns valid network" baseline r

let test_engine_clean_run_no_markers () =
  let baseline = S.build "ctrl" in
  let env = Flow.Engine.make_env Flow.Run_config.Aig in
  let r, degs = F.run_script_safe env (Copy.convert baseline) "bz; rw" in
  Alcotest.(check int) "no degradations" 0 (List.length degs);
  check_equiv "clean run equivalent" baseline r;
  Alcotest.(check bool) "clean run optimizes" true
    (Aig.num_gates r <= Aig.num_gates baseline)

(* -- sat / cec fault containment -- *)

let test_cec_retry () =
  let a = S.build "ctrl" in
  let b = Copy.convert a in
  (* one injected solver fault: the first attempt dies, the re-encode on a
     fresh solver answers *)
  with_faults "sat.solve:1:1" (fun () ->
      let r, rep = Cec_aa.check_full a b in
      Alcotest.(check bool) "still equivalent" true (r = Algo.Cec.Equivalent);
      Alcotest.(check string) "retry answered" "retry" rep.Cec_aa.winner)

let test_cec_anomaly_unknown () =
  let a = S.build "ctrl" in
  let b = Copy.convert a in
  (* every solve attempt dies: the check must degrade to Unknown, not
     raise into the caller's guards *)
  with_faults "sat.solve:1" (fun () ->
      let r, rep = Cec_aa.check_full a b in
      Alcotest.(check bool) "unknown, not raised" true (r = Algo.Cec.Unknown);
      Alcotest.(check string) "marked anomaly" "anomaly" rep.Cec_aa.winner)

let test_solver_deadline_unknown () =
  (* a hard pigeonhole instance with an already-expired deadline must
     give up cleanly *)
  let cnf_dir = if Sys.file_exists "cnf" then "cnf" else "test/cnf" in
  let s =
    Satkit.Dimacs.load_file (Filename.concat cnf_dir "php87_unsat.cnf")
  in
  match Satkit.Solver.solve ~deadline:(Unix.gettimeofday () -. 1.) s with
  | Satkit.Solver.Unknown -> ()
  | _ -> Alcotest.fail "expired deadline must answer Unknown"

(* -- partition containment -- *)

let test_partition_all_jobs_fail () =
  let baseline = S.build "int2float" in
  with_faults "parmap.job:1" (fun () ->
      let r, st =
        P.run ~size_cap:60 ~jobs:2
          ~script:"rw"
          ~env:(Flow.Engine.make_env Flow.Run_config.Aig)
          (Copy.convert baseline)
      in
      Alcotest.(check bool) "pieces exist" true (st.P.partitions > 0);
      Alcotest.(check int) "every job failed" st.P.partitions st.P.failed;
      Alcotest.(check int) "nothing accepted" 0 st.P.accepted;
      Alcotest.(check (list string)) "one exception record per piece"
        (List.init st.P.partitions (fun _ -> "exception"))
        (List.map (fun d -> d.Flow.Engine.d_reason) st.P.degradations);
      check_equiv "original cones kept" baseline r)

let test_partition_stitch_fallback () =
  let baseline = S.build "int2float" in
  with_faults "partition.stitch:1" (fun () ->
      let r, st =
        P.run ~size_cap:60 ~jobs:2 ~script:"rw"
          ~env:(Flow.Engine.make_env Flow.Run_config.Aig)
          (Copy.convert baseline)
      in
      Alcotest.(check int) "identity fallback" 2 st.P.stitch_fallbacks;
      Alcotest.(check (list string)) "both stitch attempts recorded"
        [ "partition-stitch exception"; "partition-stitch exception" ]
        (List.map
           (fun d -> d.Flow.Engine.d_pass ^ " " ^ d.Flow.Engine.d_reason)
           st.P.degradations);
      check_equiv "fallback preserves function" baseline r)

(* An expired deadline degrades every piece with the engine's own reason,
   never a reason outside the documented vocabulary. *)
let test_partition_deadline_records () =
  let baseline = S.build "int2float" in
  let r, st =
    P.run ~size_cap:60 ~jobs:1 ~script:"rw"
      ~deadline:(Unix.gettimeofday () -. 1.)
      ~env:(Flow.Engine.make_env Flow.Run_config.Aig)
      (Copy.convert baseline)
  in
  Alcotest.(check (list string)) "one deadline record per piece"
    (List.init st.P.partitions (Printf.sprintf "part%d deadline"))
    (List.map
       (fun d -> d.Flow.Engine.d_pass ^ " " ^ d.Flow.Engine.d_reason)
       st.P.degradations);
  check_equiv "deadline keeps the original cones" baseline r

let test_partition_retry_rescues () =
  let baseline = S.build "int2float" in
  (* rate 1, cap 2: both fires land on the first piece's first two
     attempts, so a budget of two retries (three attempts) absorbs them *)
  with_faults "parmap.job:1:2" (fun () ->
      let r, st =
        P.run ~size_cap:60 ~jobs:1 ~retries:2 ~script:"rw"
          ~env:(Flow.Engine.make_env Flow.Run_config.Aig)
          (Copy.convert baseline)
      in
      Alcotest.(check int) "retries absorbed the capped faults" 0 st.P.failed;
      check_equiv "equivalent" baseline r)

(* -- store crash points -- *)

(* covered in depth by Test_store; here only the registry wiring *)

(* -- trace round-trip -- *)

let test_degraded_trace_round_trip () =
  let t = Obs.Trace.create ~flow:"ft" () in
  Obs.Trace.pass_begin t ~pass:"rw" ~index:0 ~gates:100 ~depth:10;
  Obs.Trace.degraded t ~pass:"rw" ~reason:"deadline" ~detail:"budget 0.5s";
  Obs.Trace.pass_end t ~pass:"rw" ~index:0 ~gates:90 ~depth:10 ~elapsed:0.01 ();
  Alcotest.(check int) "counted" 1 (Obs.Trace.degraded_count t);
  (match Obs.Trace.degraded_events t with
  | [ ("rw", "deadline", "budget 0.5s") ] -> ()
  | _ -> Alcotest.fail "degraded_events shape");
  let path = Filename.temp_file "genlog_ft" ".jsonl" in
  Obs.Trace.write_file t path;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let t' = Obs.Trace.read_file path in
      Alcotest.(check int)
        "marker survives JSONL" 1
        (Obs.Trace.degraded_count t');
      let rows = Obs.Trace.summarize t' in
      let deg =
        List.fold_left
          (fun acc r -> acc + r.Obs.Trace.row_degraded)
          0 rows
      in
      Alcotest.(check int) "attributed to the pass row" 1 deg)

(* -- end-to-end fuzz: the layer's invariant -- *)

(* An env whose database has no shipped table, so [rw] runs exact
   synthesis and a [sat.solve] fault can fire partway through a pass that
   has already changed the network. *)
let untabled_env () =
  {
    (Flow.Engine.make_env Flow.Run_config.Aig) with
    Flow.Engine.db =
      Exact.Database.create
        { Exact.Synth.aig_config with conflict_budget = 20_000 };
  }

let test_fault_fuzz () =
  let iters = 4 * Seed.fuzz_iters in
  let base_seed = Seed.get 0xfa17 in
  for i = 1 to iters do
    let seed = base_seed + i in
    let net =
      G.generate ~seed ~num_pis:6 ~num_gates:(40 + (seed mod 40)) ~num_pos:4 ()
    in
    (* arm a broad mid-rate spec over every execution point *)
    with_faults ~seed
      "engine.pass:0.3,parmap.job:0.3,partition.stitch:0.2,sat.solve:0.05:2"
      (fun () ->
        let env = untabled_env () in
        let r, degs = F.run_script_safe env (Copy.convert net) "bz; rw; rf" in
        let p, _ =
          P.run ~size_cap:30 ~jobs:2 ~retries:1 ~script:"rw"
            ~env:(untabled_env ())
            (Copy.convert net)
        in
        (* disarm before the oracle so the verification itself is clean *)
        Fault.disable ();
        check_equiv
          (Printf.sprintf "seed %d: safe engine (degs = %d)" seed
             (List.length degs))
          net r;
        check_equiv (Printf.sprintf "seed %d: partition" seed) net p)
  done

let suite =
  [
    Alcotest.test_case "disabled registry is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "spec parse errors" `Quick test_parse_errors;
    Alcotest.test_case "deterministic in the seed" `Quick
      test_deterministic_sequence;
    Alcotest.test_case "rate extremes" `Quick test_rate_extremes;
    Alcotest.test_case "max_fires cap" `Quick test_max_fires_cap;
    Alcotest.test_case "fire raises Injected" `Quick test_fire_raises;
    Alcotest.test_case "parmap isolates one bad item" `Quick
      test_parmap_isolation;
    Alcotest.test_case "parmap retry rescues transients" `Quick
      test_parmap_retry;
    Alcotest.test_case "injected parmap fault isolated" `Quick
      test_parmap_injected_fault_isolated;
    Alcotest.test_case "stop cancels cleanly" `Quick test_parmap_stop_cancels;
    Alcotest.test_case "engine: pass exception degrades" `Slow
      test_engine_pass_exception_degrades;
    Alcotest.test_case "engine: deadline degrades" `Quick
      test_engine_deadline_degrades;
    Alcotest.test_case "engine: stop degrades" `Quick test_engine_stop_degrades;
    Alcotest.test_case "engine: clean run has no markers" `Slow
      test_engine_clean_run_no_markers;
    Alcotest.test_case "cec: injected fault is retried once" `Slow
      test_cec_retry;
    Alcotest.test_case "cec: total anomaly answers Unknown" `Slow
      test_cec_anomaly_unknown;
    Alcotest.test_case "solver: expired deadline answers Unknown" `Quick
      test_solver_deadline_unknown;
    Alcotest.test_case "partition: all jobs fail, cones kept" `Slow
      test_partition_all_jobs_fail;
    Alcotest.test_case "partition: stitch fallback chain" `Slow
      test_partition_stitch_fallback;
    Alcotest.test_case "partition: deadline records per piece" `Slow
      test_partition_deadline_records;
    Alcotest.test_case "partition: retry rescues capped faults" `Slow
      test_partition_retry_rescues;
    Alcotest.test_case "degraded trace round-trip" `Quick
      test_degraded_trace_round_trip;
    Alcotest.test_case "fault fuzz: equivalent or cleanly degraded" `Slow
      test_fault_fuzz;
  ]
