(* Tests for the fault-tolerant execution layer: per-job isolation and
   the stop hook in Parmap, the engine's checkpoint/rollback path, CEC's
   anomaly fallback, partition failure containment and cancellation, and
   a seeded end-to-end fuzz asserting the invariant the whole layer exists
   for — every run ends in either a CEC-equivalent output or a clean,
   marked degradation.

   Faults come from fake networks built on the network interface: each
   fake is an AIG with one operation that raises on cue, so a fault lands
   wherever the code under test calls that operation — inside a pass that
   has already changed the network, inside a piece's job, inside the
   stitch or the CEC encoder. *)

open Network
module F = Flow.Engine.Make (Aig)
module P = Flow.Partition.Make (Aig)
module Cec_aa = Algo.Cec.Make (Aig) (Aig)
module Copy = Convert.Make (Aig) (Aig)
module S = Lsgen.Suite.Make (Aig)
module G = Gen.Make (Aig)

exception Injected

(* Which calls of one operation raise: while [with_armed ~times c k f]
   runs [f], calls k .. k + times - 1 of [tick c] (counting from 0) raise
   [Injected].  The count is atomic, so partition workers on several
   domains share one schedule. *)
type countdown = { left : int Atomic.t; mutable times : int }

let countdown () = { left = Atomic.make 0; times = 0 }

let tick c =
  let n = Atomic.fetch_and_add c.left (-1) in
  if n <= 0 && n > -c.times then raise Injected

(* Whether call k was reached since the countdown was armed. *)
let fired c = Atomic.get c.left < 0

let with_armed ?(times = 1) c k f =
  c.times <- times;
  Atomic.set c.left k;
  Fun.protect ~finally:(fun () -> c.times <- 0) f

(* Passes call [substitute_node]; conversion, the checkpoint copy, export
   and the stitch never do, so a firing lands inside a pass, possibly
   after it has changed the network. *)
let substitutions = countdown ()

module Fail_substitute = struct
  include Aig

  let substitute_node t n s =
    tick substitutions;
    Aig.substitute_node t n s
end

(* A pass that corrupts the network before it fails: the k-th
   substitution first substitutes the complement of the given signal,
   then raises. *)
let corruptions = countdown ()

module Corrupt_substitute = struct
  include Aig

  let substitute_node t n s =
    match tick corruptions with
    | () -> Aig.substitute_node t n s
    | exception Injected ->
      Aig.substitute_node t n (Aig.complement s);
      raise Injected
end

(* Pricing a candidate dereferences its MFFC, so every [rw] piece does;
   carving, export, the equivalence guard and the stitch never do. *)
let derefs = countdown ()

module Fail_deref = struct
  include Aig

  let decr_ref t n =
    tick derefs;
    Aig.decr_ref t n
end

(* The stitch and the identity copy both size their destination by the
   parent; only creations at [create_capacity] count. *)
let creates = countdown ()
let create_capacity = ref (-1)

module Fail_create = struct
  include Aig

  let create ?initial_capacity () =
    if initial_capacity = Some !create_capacity then tick creates;
    Aig.create ?initial_capacity ()
end

(* CEC reads every gate's fanins while it encodes the miter. *)
let fanins = countdown ()

module Fail_fanin = struct
  include Aig

  let fanin t n =
    tick fanins;
    Aig.fanin t n
end

module F_sub = Flow.Engine.Make (Fail_substitute)
module F_corrupt = Flow.Engine.Make (Corrupt_substitute)
module P_sub = Flow.Partition.Make (Fail_substitute)
module P_deref = Flow.Partition.Make (Fail_deref)
module P_create = Flow.Partition.Make (Fail_create)
module Cec_fanin = Algo.Cec.Make (Fail_fanin) (Aig)

let check_equiv msg a b =
  match Cec_aa.check a b with
  | Algo.Cec.Equivalent -> ()
  | Algo.Cec.Counterexample _ -> Alcotest.fail (msg ^ ": not equivalent")
  | Algo.Cec.Unknown -> Alcotest.fail (msg ^ ": cec unknown")

let reasons degs = List.map (fun d -> d.Flow.Engine.d_reason) degs

(* A stop hook that never fires: passing it arms the run, so a pass that
   raises is rolled back instead of propagating. *)
let armed_stop () = None

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
        Alcotest.(check bool)
          "exception preserved" true
          (match e.err_exn with
          | Failure m -> String.equal m "boom"
          | _ -> false))
    results;
  let bad = Array.to_list results |> List.filter Result.is_error in
  Alcotest.(check int) "exactly one failure" 1 (List.length bad)

let test_parmap_stop_cancels () =
  let results, _ =
    Flow.Parmap.map_results ~jobs:1
      ~stop:(fun () -> Some "interrupt")
      ~init:(fun _ -> ())
      ~f:(fun () i -> i)
      (Array.init 3 Fun.id)
  in
  Array.iter
    (fun r ->
      match r with
      | Error { Flow.Parmap.err_exn = Flow.Parmap.Cancelled "interrupt"; _ }
        ->
        ()
      | _ -> Alcotest.fail "expected Cancelled \"interrupt\"")
    results

(* -- engine checkpoint / degrade -- *)

(* One "exception" record exactly when the armed substitution was
   reached. *)
let records_for c = if fired c then [ "exception" ] else []

(* A pass that raises after it has started rewriting is rolled back to
   the last checkpoint: wherever the k-th substitution falls, the run
   records exactly one "exception" and returns an equivalent network. *)
let test_engine_pass_exception_degrades () =
  let baseline = S.build "ctrl" in
  let env = Flow.Engine.make_env Flow.Run_config.Aig in
  let hit = ref [] in
  for k = 0 to 40 do
    let r, degs =
      with_armed substitutions k (fun () ->
          F_sub.run_script_safe env ~stop:armed_stop (Copy.convert baseline)
            "bz; rw; rf")
    in
    let msg = Printf.sprintf "substitution %d" k in
    hit := List.map (fun d -> d.Flow.Engine.d_pass) degs @ !hit;
    Alcotest.(check (list string)) (msg ^ ": records")
      (records_for substitutions) (reasons degs);
    check_equiv msg baseline r
  done;
  Alcotest.(check (list string)) "faults landed in every pass"
    [ "bz"; "rf"; "rw" ] (List.sort_uniq compare !hit)

(* The rollback resumes from the checkpoint, not from the network the
   failed pass left behind: a fault in the first pass that has already
   inverted a node must not reach the passes after it, or the result. *)
let test_engine_rollback_discards_corruption () =
  let baseline = S.build "ctrl" in
  let env = Flow.Engine.make_env Flow.Run_config.Aig in
  for k = 0 to 4 do
    let r, degs =
      with_armed corruptions k (fun () ->
          F_corrupt.run_script_safe env ~stop:armed_stop
            (Copy.convert baseline) "bz; rw; rf")
    in
    let msg = Printf.sprintf "corrupted substitution %d" k in
    Alcotest.(check (list string)) (msg ^ ": records") [ "exception" ]
      (reasons degs);
    check_equiv msg baseline r
  done

let test_engine_deadline_degrades () =
  let baseline = S.build "ctrl" in
  let env = Flow.Engine.make_env Flow.Run_config.Aig in
  let r, degs =
    F.run_script_safe env
      ~stop:(fun () -> Some "deadline")
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
      ~stop:(fun () -> Some "interrupt")
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

let test_cec_anomaly_unknown () =
  let a = S.build "ctrl" in
  let b = Copy.convert a in
  (* the encoder dies: the check must degrade to Unknown, not raise into
     the caller's guards *)
  let r, rep = with_armed fanins 0 (fun () -> Cec_fanin.check_full a b) in
  Alcotest.(check bool) "unknown, not raised" true (r = Algo.Cec.Unknown);
  Alcotest.(check string) "marked anomaly" "anomaly" rep.Cec_fanin.winner

(* -- partition containment -- *)

(* Every dereference fails: each piece's job raises, and every piece
   keeps its original cone. *)
let test_partition_all_jobs_fail () =
  let baseline = S.build "int2float" in
  let r, st =
    with_armed ~times:max_int derefs 0 (fun () ->
        P_deref.run ~size_cap:60 ~jobs:2 ~script:"rw"
          ~env:(Flow.Engine.make_env Flow.Run_config.Aig)
          (Copy.convert baseline))
  in
  Alcotest.(check bool) "pieces exist" true (st.P_deref.partitions > 0);
  Alcotest.(check int) "every job failed" st.P_deref.partitions
    st.P_deref.failed;
  Alcotest.(check int) "nothing accepted" 0 st.P_deref.accepted;
  Alcotest.(check (list string)) "one exception record per piece"
    (List.init st.P_deref.partitions (fun _ -> "exception"))
    (reasons st.P_deref.degradations);
  check_equiv "original cones kept" baseline r

(* The first two networks created at the parent's size are the two stitch
   attempts; the third, the identity copy, succeeds.  A piece of at most
   60 gates exports into at most 3 * 60 + 2 nodes, fewer than the
   parent's. *)
let test_partition_stitch_fallback () =
  let baseline = S.build "int2float" in
  let input = Copy.convert baseline in
  create_capacity := Aig.size input;
  let r, st =
    with_armed ~times:2 creates 0 (fun () ->
        P_create.run ~size_cap:60 ~jobs:2 ~script:"rw"
          ~env:(Flow.Engine.make_env Flow.Run_config.Aig)
          input)
  in
  Alcotest.(check int) "identity fallback" 2 st.P_create.stitch_fallbacks;
  Alcotest.(check (list string)) "both stitch attempts recorded"
    [ "partition-stitch exception"; "partition-stitch exception" ]
    (List.map
       (fun d -> d.Flow.Engine.d_pass ^ " " ^ d.Flow.Engine.d_reason)
       st.P_create.degradations);
  check_equiv "fallback preserves function" baseline r

(* An expired deadline degrades every piece with the hook's own reason,
   never a reason outside the documented vocabulary. *)
let test_partition_deadline_records () =
  let baseline = S.build "int2float" in
  let r, st =
    P.run ~size_cap:60 ~jobs:1 ~script:"rw"
      ~stop:(fun () -> Some "deadline")
      ~env:(Flow.Engine.make_env Flow.Run_config.Aig)
      (Copy.convert baseline)
  in
  Alcotest.(check (list string)) "one deadline record per piece"
    (List.init st.P.partitions (Printf.sprintf "part%d deadline"))
    (List.map
       (fun d -> d.Flow.Engine.d_pass ^ " " ^ d.Flow.Engine.d_reason)
       st.P.degradations);
  check_equiv "deadline keeps the original cones" baseline r

(* A stop hook that trips after k polls: with one worker the first k
   pieces run to completion, the rest keep their original cones, each
   with one "interrupt" record, and none counts as failed. *)
let test_partition_stop_cancels () =
  let baseline = S.build "int2float" in
  let k = 2 and polls = ref 0 in
  let stop () =
    incr polls;
    if !polls > k then Some "interrupt" else None
  in
  let trace = Obs.Trace.create ~flow:"aig" () in
  let r, st =
    P.run ~size_cap:40 ~jobs:1 ~script:"rw" ~trace ~stop
      ~env:(Flow.Engine.make_env Flow.Run_config.Aig)
      (Copy.convert baseline)
  in
  Alcotest.(check bool) "some pieces cancelled" true (st.P.partitions > k);
  let ran =
    List.filter_map
      (function
        | Obs.Trace.Pass_begin { pass; _ }
          when String.starts_with ~prefix:"part" pass
               && not (String.starts_with ~prefix:"partition" pass) ->
          Some pass
        | _ -> None)
      (Obs.Trace.events trace)
  in
  Alcotest.(check (list string)) "the first k pieces ran"
    (List.init k (Printf.sprintf "part%d")) ran;
  Alcotest.(check (list string)) "one interrupt record per unclaimed piece"
    (List.init (st.P.partitions - k) (fun i ->
         Printf.sprintf "part%d interrupt" (i + k)))
    (List.map
       (fun d -> d.Flow.Engine.d_pass ^ " " ^ d.Flow.Engine.d_reason)
       st.P.degradations);
  Alcotest.(check int) "cancelled is not failed" 0 st.P.failed;
  check_equiv "cancelled pieces keep their cones" baseline r

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

(* Random networks, each with one substitution fault at a random call in
   a safe engine run and in a partition run, and a random number of
   failed stitch attempts.  The schedule comes from [Seed.state], so
   GENLOG_TEST_SEED replays it. *)
let test_fault_fuzz () =
  let rng = Seed.state 0xfa17 in
  let env () = Flow.Engine.make_env Flow.Run_config.Aig in
  for i = 1 to 4 * Seed.fuzz_iters do
    let seed = Random.State.bits rng in
    let net =
      G.generate ~seed ~num_pis:6 ~num_gates:(40 + (seed mod 40)) ~num_pos:8 ()
    in
    let msg what =
      Printf.sprintf "GENLOG_TEST_SEED=%d iteration %d: %s" (Seed.get 0xfa17)
        i what
    in
    let r, degs =
      with_armed substitutions (Random.State.int rng 10) (fun () ->
          F_sub.run_script_safe (env ()) ~stop:armed_stop (Copy.convert net)
            "bz; rw; rf")
    in
    Alcotest.(check (list string)) (msg "engine records")
      (records_for substitutions) (reasons degs);
    check_equiv (msg "safe engine") net r;
    let p, st =
      with_armed substitutions (Random.State.int rng 10) (fun () ->
          P_sub.run ~size_cap:15 ~jobs:2 ~script:"rw" ~env:(env ())
            (Copy.convert net))
    in
    Alcotest.(check int) (msg "failed pieces")
      (if fired substitutions then 1 else 0) st.P_sub.failed;
    check_equiv (msg "partition") net p;
    (* pieces of at most [cap] gates export into networks smaller than
       the parent, so only the stitch, the identity copy and a piece's
       final cleanup can meet a creation at the parent's size; each
       failed creation costs one stitch attempt or fails one piece *)
    let input = Copy.convert net in
    let cap = max 1 ((Aig.size input - 3) / 3) in
    let times = Random.State.int rng 3 in
    create_capacity := Aig.size input;
    let s, st =
      with_armed ~times creates 0 (fun () ->
          P_create.run ~size_cap:cap ~jobs:2 ~script:"rw" ~env:(env ()) input)
    in
    Alcotest.(check int) (msg "failed creations") times
      (st.P_create.failed + st.P_create.stitch_fallbacks);
    check_equiv (msg "stitch") net s
  done

let suite =
  [
    Alcotest.test_case "parmap isolates one bad item" `Quick
      test_parmap_isolation;
    Alcotest.test_case "stop cancels cleanly" `Quick test_parmap_stop_cancels;
    Alcotest.test_case "engine: pass exception degrades" `Slow
      test_engine_pass_exception_degrades;
    Alcotest.test_case "engine: rollback discards a corrupted pass" `Quick
      test_engine_rollback_discards_corruption;
    Alcotest.test_case "engine: deadline degrades" `Quick
      test_engine_deadline_degrades;
    Alcotest.test_case "engine: stop degrades" `Quick test_engine_stop_degrades;
    Alcotest.test_case "engine: clean run has no markers" `Slow
      test_engine_clean_run_no_markers;
    Alcotest.test_case "cec: total anomaly answers Unknown" `Slow
      test_cec_anomaly_unknown;
    Alcotest.test_case "partition: all jobs fail, cones kept" `Slow
      test_partition_all_jobs_fail;
    Alcotest.test_case "partition: stitch fallback chain" `Slow
      test_partition_stitch_fallback;
    Alcotest.test_case "partition: deadline records per piece" `Slow
      test_partition_deadline_records;
    Alcotest.test_case "partition: stop cancels unclaimed pieces" `Slow
      test_partition_stop_cancels;
    Alcotest.test_case "degraded trace round-trip" `Quick
      test_degraded_trace_round_trip;
    Alcotest.test_case "fault fuzz: equivalent or cleanly degraded" `Slow
      test_fault_fuzz;
  ]
