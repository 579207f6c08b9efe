(* genlog_cli: command-line driver.

     genlog_cli gen adder -o adder.aag          generate a benchmark
     genlog_cli stats adder.aag                 print size/depth
     genlog_cli opt adder.aag -r mig -o out.aag run compress2rs
     genlog_cli map adder.aag -k 6 -o out.blif  6-LUT mapping
     genlog_cli cec a.aag b.aag                 SAT equivalence check *)

open Cmdliner

module Aig = Genlog.Aig
module D = Genlog.Depth.Make (Aig)

(* A path that cannot be read or written is bad input (exit 2), reported
   as `genlog: PATH: reason`, not an internal error.  [Sys_error] names
   the path in some messages and not in others; [path_reason] drops it. *)
let path_reason path msg =
  let prefix = path ^ ": " in
  if String.starts_with ~prefix msg then
    String.sub msg (String.length prefix)
      (String.length msg - String.length prefix)
  else msg

let report_path path msg =
  Printf.eprintf "genlog: %s: %s\n%!" path (path_reason path msg)

let path_error path msg =
  report_path path msg;
  exit 2

let on_path path f = try f () with Sys_error msg -> path_error path msg

(* A malformed input is bad input too.  [opt] reads with
   [Aiger.read_file] instead: in a batch, one bad file fails only its own
   job. *)
let read_aig path =
  match Genlog.Aiger.read_file path with
  | t -> t
  | exception (Genlog.Aiger.Parse_error msg | Sys_error msg) ->
    path_error path msg

let stats_of_aig t =
  Printf.sprintf "i/o = %d/%d  gates = %d  depth = %d" (Aig.num_pis t)
    (Aig.num_pos t) (Aig.num_gates t) (D.depth t)

(* -- gen -- *)

let gen_cmd =
  let bench_name =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE")
  in
  let run name output =
    if not (List.mem name Genlog.Suite.names) then begin
      Printf.eprintf "unknown benchmark %s; available: %s\n" name
        (String.concat ", " Genlog.Suite.names);
      exit 1
    end;
    let t = Genlog.Suite.build name in
    (match output with
    | Some path -> on_path path (fun () -> Genlog.Aiger.write_file t path)
    | None -> Genlog.Aiger.write t stdout);
    Printf.eprintf "%s: %s\n" name (stats_of_aig t)
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a benchmark circuit as ASCII AIGER")
    Term.(const run $ bench_name $ output)

(* -- stats -- *)

let stats_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file = Printf.printf "%s: %s\n" file (stats_of_aig (read_aig file)) in
  Cmd.v (Cmd.info "stats" ~doc:"Print network statistics") Term.(const run $ file)

(* -- opt -- *)

module RC = Genlog.Run_config

(* Flag defaults come from the typed config's defaults: the flag is the
   one source of each setting, shared by every subcommand. *)
let base_cfg = RC.default

let representation =
  Arg.(
    value
    & opt (enum RC.representations) base_cfg.RC.representation
    & info [ "r"; "representation" ] ~docv:"REP")

let script_arg =
  Arg.(
    value
    & opt string base_cfg.RC.script
    & info [ "s"; "script" ] ~docv:"SCRIPT")

let trace_arg =
  Arg.(
    value
    & opt (some string) base_cfg.RC.trace_path
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a JSONL pass-level trace (one event per line) to $(docv).")

let stats_flag =
  Arg.(
    value
    & flag
    & info [ "stats" ]
        ~doc:"Print a per-pass summary table (gates/depth deltas, wall time, \
              per-algorithm counters) to stderr.")

let partition_arg =
  Arg.(
    value
    & opt int base_cfg.RC.partition
    & info [ "partition" ] ~docv:"SIZE"
        ~doc:"Carve the network into partitions of at most $(docv) gates and \
              optimize them in parallel (0 disables partitioning). Every \
              stitched replacement is guarded by random simulation with SAT \
              escalation, so the result is equivalence-checked by \
              construction.")

let jobs_arg =
  Arg.(
    value
    & opt int base_cfg.RC.jobs
    & info [ "jobs" ] ~docv:"N"
        ~doc:"Worker domains for $(b,--partition) and for batch runs over \
              several input files (default: the runtime's recommended \
              domain count).")

let cache_arg =
  Arg.(
    value
    & opt (some string) base_cfg.RC.cache
    & info [ "cache" ] ~docv:"PATH"
        ~doc:"Persistent store for NPN classes synthesized on the fly: \
              results are loaded from $(docv) on start, and new ones are \
              added by rewriting the file once at exit. Every \
              representation starts from a shipped table of all classes \
              of up to four inputs, so the built-in flows synthesize, and \
              store, nothing. The file is \
              keyed to the synthesis domain by a fingerprinted header; a \
              mismatched or corrupt store is skipped with a warning, never \
              an error.")

let cost_arg =
  Arg.(
    value
    & opt string base_cfg.RC.cost
    & info [ "cost" ] ~docv:"SPEC"
        ~doc:"Optimization objective every pass gains against: \
              $(b,area) (gate count, the default), $(b,depth), \
              $(b,edges), $(b,activity) (switching activity from \
              deterministic simulation), $(b,lut) or $(b,lut:K) \
              (technology-aware K-LUT cost), or $(b,weights:FILE) \
              (per-gate-kind integer weights). The spec is stamped into \
              trace meta and BENCH headers.")

let timeout_arg =
  Arg.(
    value
    & opt float base_cfg.RC.timeout
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"Wall-clock budget per input network (0 disables). On expiry \
              the engine stops at the next pass boundary and returns the \
              best checkpointed network so far, marked degraded; the \
              process exits 4 instead of 0. Under $(b,--partition) the \
              budget stops the claiming of pieces: running pieces finish, \
              and unstarted ones keep their original logic.")

(* SIGINT/SIGTERM wind-down: the handler only sets a flag; the stop
   hooks notice it at the next pass, piece or batch item boundary, the
   epilogue still flushes the store and finalizes the trace, and the
   process exits 128+signum. *)
let interrupted = Atomic.make 0
let interrupt () =
  if Atomic.get interrupted <> 0 then Some "interrupt" else None

(* The one stop hook of an input network: a signal, or the [--timeout]
   budget, counted from now. *)
let stop_hook (cfg : RC.t) =
  if cfg.RC.timeout <= 0. then interrupt
  else
    let deadline = Unix.gettimeofday () +. cfg.RC.timeout in
    fun () ->
      match interrupt () with
      | None when Unix.gettimeofday () >= deadline -> Some "deadline"
      | r -> r

let install_signal_handlers () =
  let handle signum code =
    try Sys.set_signal signum (Sys.Signal_handle (fun _ -> Atomic.set interrupted code))
    with Invalid_argument _ | Sys_error _ -> ()
  in
  handle Sys.sigint 130;
  handle Sys.sigterm 143

(* One code path for all four representations: AIG in, optimized AIG out,
   plus whatever degradation markers the engine recorded.  The network
   module and its conversions come from the representation's row of the
   layer-4 table.  Runs the whole-network script engine, or the
   partition-parallel engine when a partition size is set.  The
   exact-synthesis database is domain-safe, so a single [env] is shared by
   every worker. *)
let optimize_network env ~(cfg : RC.t) ~trace (aig : Aig.t) :
    Aig.t * Genlog.Flow.degradation list =
  let stop = stop_hook cfg in
  let rep = cfg.RC.representation in
  let module R = (val Genlog.Flow.representation rep) in
  let module N = R.N in
  let net = R.of_aig aig in
  let r, degs =
    if cfg.RC.partition > 0 then begin
      let module P = Genlog.Flow.Partition.Make (N) in
      let r, st =
        P.run ~size_cap:cfg.RC.partition ~jobs:cfg.RC.jobs
          ~script:cfg.RC.script ~trace ~stop ~env net
      in
      Printf.eprintf
        "partition: %d pieces, %d accepted, %d rejected (cost), %d rejected \
         (cex), %d failed, %d degraded, jobs = %d%s\n\
         %!"
        st.P.partitions st.P.accepted st.P.rejected_cost st.P.rejected_cex
        st.P.failed st.P.degraded_pieces st.P.jobs
        (if st.P.stitch_fallbacks > 0 then
           Printf.sprintf " (stitch fallback level %d)" st.P.stitch_fallbacks
         else "");
      (r, st.P.degradations)
    end
    else begin
      let module F = Genlog.Flow.Make (N) in
      F.run_script_safe env ~trace ~stop net cfg.RC.script
    end
  in
  let module Dn = Genlog.Depth.Make (N) in
  Printf.eprintf "%s: gates = %d depth = %d%s\n%!"
    (RC.representation_to_string rep)
    (N.num_gates r) (Dn.depth r)
    (if rep = RC.Aig then "" else " (written back as AIG)");
  (R.to_aig r, degs)

let opt_cmd =
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE"
         ~doc:"Input AIGER file(s). Several files form a batch: all of \
               them run through one process sharing one warm \
               exact-synthesis database.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUT"
          ~doc:"Single input: output file (stdout when omitted). Batch: \
                output directory, created if missing (default: \
                $(i,FILE).opt.aag next to each input).")
  in
  let run files representation script output trace_file stats partition jobs
      cache cost timeout =
    (match Genlog.Cost.Spec.of_string cost with
    | Ok _ -> ()
    | Error msg ->
      Printf.eprintf "opt: bad --cost spec: %s\n" msg;
      exit 2);
    (match Genlog.Script.parse script with
    | _ -> ()
    | exception Genlog.Script.Parse_error msg ->
      Printf.eprintf "opt: bad --script: %s\n" msg;
      exit 2);
    let cfg =
      RC.make ~representation ~script ?trace_path:trace_file ~stats ~partition
        ~jobs ~cost ?cache ~timeout ()
    in
    (* stamp the objective into trace meta and BENCH headers *)
    Genlog.Runmeta.set_cost cfg.RC.cost;
    Printexc.record_backtrace true;
    install_signal_handlers ();
    let rep_name = RC.representation_to_string representation in
    let trace =
      if cfg.RC.trace_path <> None || cfg.RC.stats then
        Genlog.Trace.create ~flow:rep_name ()
      else Genlog.Trace.null
    in
    let env = Genlog.Flow.env_of_config cfg in
    let optimize_one (file, tr) =
      let t = Genlog.Aiger.read_file file in
      Printf.eprintf "%s: %s\n%!" file (stats_of_aig t);
      let r, degs = optimize_network env ~cfg ~trace:tr t in
      List.iter
        (fun d ->
          Printf.eprintf "%s: DEGRADED %s (%s): %s\n%!" file
            d.Genlog.Flow.d_pass d.Genlog.Flow.d_reason d.Genlog.Flow.d_detail)
        degs;
      (r, degs)
    in
    let many = List.length files > 1 in
    (* child trace sinks are created up front on this domain; each batch
       worker writes only its own, preserving the single-writer rule *)
    let items =
      List.map
        (fun f ->
          ( f,
            if many then Genlog.Trace.child trace ~flow:(Filename.basename f)
            else trace ))
        files
    in
    let n_files = List.length files in
    let results :
        (Aig.t * Genlog.Flow.degradation list, Genlog.Flow.Parmap.job_error)
        result
        array
        ref =
      ref [||]
    in
    (* An output path that cannot be written gets one line and exit
       code 2, once the epilogue has run. *)
    let bad_path = ref false in
    let on_out path f =
      try f ()
      with Sys_error msg ->
        report_path path msg;
        bad_path := true
    in
    (* Everything that must survive a job failure or an interrupt lives in
       the [finally]: the store flush (so paid-for exact synthesis results
       persist), the trace write-out, and the stats.  The body only
       computes results and writes outputs. *)
    let epilogue () =
      if many then Genlog.Trace.merge trace (List.map snd items);
      (* one store flush for the whole batch *)
      Genlog.Database.flush env.Genlog.Flow.db;
      (match cfg.RC.cache with
      | Some path ->
        let db = env.Genlog.Flow.db in
        let si = Genlog.Database.store_info db in
        Printf.eprintf
          "cache %s: %d classes (%d loaded, %d skipped, %d appended), %d \
           hits, %d misses\n\
           %!"
          path (Genlog.Database.size db) si.Genlog.Database.loaded
          si.Genlog.Database.skipped si.Genlog.Database.flushed
          (Genlog.Database.hits db)
          (Genlog.Database.misses db);
        Genlog.Runmeta.set_cache (Genlog.Database.obs_gauges db)
      | None -> ());
      (* one snapshot of the database the whole batch shared *)
      Genlog.Trace.report trace ~algo:"exact_db"
        (Genlog.Database.obs_gauges env.Genlog.Flow.db);
      (match cfg.RC.trace_path with
      | Some path -> on_out path (fun () -> Genlog.Trace.write_file trace path)
      | None -> ());
      if cfg.RC.stats then Format.eprintf "%a%!" Genlog.Trace.pp_summary trace
    in
    Fun.protect ~finally:epilogue (fun () ->
        (* outer batch parallelism only when partition keeps the inner
           pool idle; a single file still goes through the pool so the
           isolation and cancellation semantics are uniform *)
        let outer_jobs =
          if many && cfg.RC.partition = 0 && cfg.RC.jobs > 1 then cfg.RC.jobs
          else 1
        in
        let res, _ =
          Genlog.Flow.Parmap.map_results ~jobs:outer_jobs ~stop:interrupt
            ~init:(fun _ -> ())
            ~f:(fun () item -> optimize_one item)
            (Array.of_list items)
        in
        results := res;
        (* write what succeeded; failed inputs are reported below *)
        match (files, output) with
        | [ _ ], None -> (
          match res.(0) with
          | Ok (r, _) -> Genlog.Aiger.write r stdout
          | Error _ -> ())
        | [ _ ], Some path -> (
          match res.(0) with
          | Ok (r, _) -> on_out path (fun () -> Genlog.Aiger.write_file r path)
          | Error _ -> ())
        | _ ->
          (match output with
          | Some dir when Sys.file_exists dir && not (Sys.is_directory dir) ->
            Printf.eprintf "opt: %s exists and is not a directory\n%!" dir;
            bad_path := true
          | Some dir when not (Sys.file_exists dir) ->
            on_out dir (fun () -> Sys.mkdir dir 0o755)
          | _ -> ());
          let dest file =
            match output with
            | None -> file ^ ".opt.aag"
            | Some dir -> Filename.concat dir (Filename.basename file)
          in
          if not !bad_path then
            List.iteri
              (fun i file ->
                match res.(i) with
                | Ok (r, _) ->
                  let path = dest file in
                  on_out path (fun () ->
                      Genlog.Aiger.write_file r path;
                      Printf.eprintf "%s -> %s\n%!" file path)
                | Error _ -> ())
              files);
    let res = !results in
    let n_ok = ref 0 and n_failed = ref 0 and n_cancelled = ref 0 in
    let n_degraded = ref 0 in
    Array.iteri
      (fun i result ->
        match result with
        | Ok (_, degs) ->
          incr n_ok;
          if degs <> [] then incr n_degraded
        | Error (e : Genlog.Flow.Parmap.job_error) ->
          let file = List.nth files i in
          match e.err_exn with
          | Genlog.Flow.Parmap.Cancelled _ ->
            incr n_cancelled;
            Printf.eprintf "opt: %s: skipped (interrupted)\n%!" file
          | Genlog.Aiger.Parse_error msg | Sys_error msg ->
            (* bad input, not a crash: one line, no backtrace *)
            incr n_failed;
            Printf.eprintf "opt: %s: FAILED: %s\n%!" file (path_reason file msg)
          | exn ->
            incr n_failed;
            Printf.eprintf "opt: %s: FAILED: %s\n%!" file
              (Printexc.to_string exn);
            let bt = Printexc.raw_backtrace_to_string e.err_backtrace in
            if String.trim bt <> "" then Printf.eprintf "%s%!" bt)
      res;
    if many then
      Printf.eprintf "opt: %d/%d optimized, %d failed, %d degraded%s\n%!"
        !n_ok n_files !n_failed !n_degraded
        (if !n_cancelled > 0 then
           Printf.sprintf ", %d cancelled" !n_cancelled
         else "");
    (* exit codes: 0 ok, 1 everything failed, 2 an output path could not
       be written, 3 partial batch failure, 4 clean but degraded output,
       128+signum on interrupt (after the epilogue flushed the store and
       finalized the trace) *)
    let code =
      if Atomic.get interrupted <> 0 then Atomic.get interrupted
      else if !bad_path then 2
      else if !n_ok = 0 && !n_failed > 0 then 1
      else if !n_failed > 0 then 3
      else if !n_degraded > 0 then 4
      else 0
    in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "opt"
       ~doc:"Optimize with the generic resynthesis flow (batch mode: pass \
             several FILEs to amortize exact synthesis across them)")
    Term.(const run $ files $ representation $ script_arg $ output $ trace_arg
          $ stats_flag $ partition_arg $ jobs_arg $ cache_arg
          $ cost_arg $ timeout_arg)

(* -- map -- *)

let map_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let k = Arg.(value & opt int 6 & info [ "k" ] ~docv:"K") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE")
  in
  let run file k cost output =
    (* a LUT needs at least two inputs, and its table at most
       [Tt.max_vars] *)
    if k < 2 || k > Genlog.Tt.max_vars then begin
      Printf.eprintf "map: -k %d out of [2,%d]\n" k Genlog.Tt.max_vars;
      exit 2
    end;
    let t = read_aig file in
    let spec =
      match Genlog.Cost.Spec.of_string cost with
      | Ok s -> s
      | Error msg ->
        Printf.eprintf "map: bad --cost spec: %s\n" msg;
        exit 2
    in
    let module L = Genlog.Lutmap.Make (Aig) in
    let m = L.map t ~cost:spec ~k () in
    Printf.eprintf "%d-LUTs: %d  depth: %d\n%!" k m.L.lut_count m.L.depth;
    match output with
    | Some path -> on_path path (fun () -> Genlog.Blif.write_file m.L.klut path)
    | None -> Genlog.Blif.write m.L.klut stdout
  in
  Cmd.v (Cmd.info "map" ~doc:"Map into k-input LUTs, writing BLIF")
    Term.(const run $ file $ k $ cost_arg $ output)

(* -- cec -- *)

let cec_cmd =
  let file_a = Arg.(required & pos 0 (some file) None & info [] ~docv:"A") in
  let file_b = Arg.(required & pos 1 (some file) None & info [] ~docv:"B") in
  let budget =
    Arg.(
      value
      & opt int 0
      & info [ "budget" ] ~docv:"CONFLICTS"
          ~doc:"Single-attempt conflict budget. 0 (the default) climbs the \
                escalating budget ladder and reports UNKNOWN when the \
                instance stays open; -1 solves without any budget.")
  in
  let run file_a file_b budget =
    let a = read_aig file_a and b = read_aig file_b in
    let module C = Genlog.Cec.Make (Aig) (Aig) in
    let ladder =
      if budget < 0 then Some [] else if budget > 0 then Some [ budget ] else None
    in
    let result, report = C.check_full ?ladder a b in
    Printf.eprintf "cec: winner = %s, conflicts = %d, rungs = %d\n%!"
      report.C.winner report.C.conflicts report.C.rungs_used;
    match result with
    | Genlog.Cec.Equivalent ->
      print_endline "EQUIVALENT";
      exit 0
    | Genlog.Cec.Counterexample cex ->
      Printf.printf "NOT EQUIVALENT: counterexample =";
      Array.iter (fun v -> print_string (if v then " 1" else " 0")) cex;
      print_newline ();
      exit 1
    | Genlog.Cec.Unknown ->
      print_endline "UNKNOWN";
      exit 2
  in
  Cmd.v (Cmd.info "cec" ~doc:"SAT combinational equivalence check")
    Term.(const run $ file_a $ file_b $ budget)

(* -- exact -- *)

let exact_cmd =
  let hex = Arg.(required & pos 0 (some string) None & info [] ~docv:"HEX") in
  let rep =
    Arg.(
      value
      & opt (enum RC.representations) RC.Xag
      & info [ "r"; "representation" ] ~docv:"REP")
  in
  let run hex rep =
    let module R = (val Genlog.Flow.representation rep) in
    (* infer the variable count from the hex length: 2^n bits = 4*len *)
    let bits = 4 * String.length hex in
    let n =
      let rec go n = if 1 lsl n >= bits then n else go (n + 1) in
      go 0
    in
    let f =
      match Genlog.Tt.of_hex n hex with
      | f -> f
      | exception Invalid_argument msg ->
        Printf.eprintf "genlog: exact: %s\n%!" msg;
        exit 2
    in
    match Genlog.Exact_synth.synthesize R.synth f with
    | Genlog.Exact_synth.Const b -> Printf.printf "constant %d\n" (if b then 1 else 0)
    | Genlog.Exact_synth.Projection (v, c) ->
      Printf.printf "%sx%d (wire)\n" (if c then "!" else "") v
    | Genlog.Exact_synth.Chain c ->
      Format.printf "%a" Genlog.Exact_chain.pp c;
      Printf.printf "optimal size: %d gates\n" (Genlog.Exact_chain.size c)
    | Genlog.Exact_synth.Failed ->
      print_endline "synthesis gave up (budget exhausted)";
      exit 1
  in
  Cmd.v
    (Cmd.info "exact"
       ~doc:"SAT-exact synthesis of a function given as a hex truth table")
    Term.(const run $ hex $ rep)

(* -- report -- *)

let report_cmd =
  let trace_in =
    Arg.(
      value
      & opt (some file) None
      & info [ "trace" ] ~docv:"TRACE.jsonl"
          ~doc:"Pass-level JSONL trace to report on (written by \
                $(b,opt --trace) or $(b,bench)).")
  in
  let bench_in =
    Arg.(
      value
      & opt (some file) None
      & info [ "bench" ] ~docv:"BENCH.json"
          ~doc:"Benchmark result file to report on.")
  in
  let chrome_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"OUT.json"
          ~doc:"Export the trace as Chrome trace-event JSON (load in \
                chrome://tracing or Perfetto). Requires $(b,--trace).")
  in
  (* a malformed or unreadable artifact is bad input, not an internal
     error *)
  let load f path =
    try f path
    with Genlog.Json.Parse_error msg | Sys_error msg ->
      Printf.eprintf "report: %s: %s\n" path (path_reason path msg);
      exit 2
  in
  let run trace_in bench_in chrome_out =
    if trace_in = None && bench_in = None then begin
      Printf.eprintf "report: nothing to do; pass --trace and/or --bench\n";
      exit 2
    end;
    (match chrome_out with
    | Some _ when trace_in = None ->
      Printf.eprintf "report: --chrome requires --trace\n";
      exit 2
    | _ -> ());
    Option.iter
      (fun path ->
        let trace = load Genlog.Trace.read_file path in
        Format.printf "%a" Genlog.Trace.pp_summary trace;
        Option.iter
          (fun out ->
            on_path out (fun () -> Genlog.Chrome.write_file trace out);
            Printf.printf "[report] wrote chrome trace %s\n" out)
          chrome_out)
      trace_in;
    Option.iter
      (fun path ->
        Format.printf "%a" Genlog.Bench_json.pp
          (load Genlog.Json.parse_file path))
      bench_in
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Render trace/bench artifacts as tables and export Chrome \
             traces")
    Term.(const run $ trace_in $ bench_in $ chrome_out)

(* -- fraig -- *)

let fraig_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE")
  in
  let run file output =
    let t = read_aig file in
    Printf.eprintf "before: %s\n%!" (stats_of_aig t);
    let module Fr = Genlog.Fraig.Make (Aig) in
    let stats = Fr.run t () in
    let module Cl = Genlog.Convert.Cleanup (Aig) in
    let t = Cl.cleanup t in
    Printf.eprintf "after:  %s (%d proved, %d refuted, %d unknown)\n%!"
      (stats_of_aig t) stats.Fr.proved stats.Fr.refuted stats.Fr.unknown;
    match output with
    | Some path -> on_path path (fun () -> Genlog.Aiger.write_file t path)
    | None -> Genlog.Aiger.write t stdout
  in
  Cmd.v (Cmd.info "fraig" ~doc:"SAT sweeping (functional reduction)")
    Term.(const run $ file $ output)

let () =
  let info = Cmd.info "genlog_cli" ~doc:"Generic logic synthesis (DAC'19 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            gen_cmd;
            stats_cmd;
            opt_cmd;
            map_cmd;
            cec_cmd;
            exact_cmd;
            fraig_cmd;
            report_cmd;
          ]))
