(* The flow engine: interprets optimization scripts against any network
   representation.  An [env] bundles the two representation-specific
   choices — the exact-synthesis database feeding rewriting and the
   resubstitution kernel — which is precisely the paper's layer-4
   specialization surface; everything else is shared. *)

type env = {
  db : Exact.Database.t;
  kernel : Algo.Resub.kernel;
  cost : Algo.Cost.Spec.t;  (* optimization objective for every pass *)
}

(* Per-representation presets.  [cache] attaches the database to a
   persistent on-disk store (see Exact.Store): known NPN classes are
   loaded up front and new ones appended when the driver calls
   [Exact.Database.flush]. *)
let aig_env ?(cost = Algo.Cost.Spec.Area) ?cache () =
  {
    db = Exact.Database.create ?store:cache Exact.Synth.aig_config;
    kernel = Algo.Resub.And_or;
    cost;
  }

let xag_env ?(cost = Algo.Cost.Spec.Area) ?cache () =
  {
    db = Exact.Database.create ?store:cache Exact.Synth.xag_config;
    kernel = Algo.Resub.And_or_xor;
    cost;
  }

let mig_env ?(cost = Algo.Cost.Spec.Area) ?cache () =
  {
    db = Exact.Database.create ?store:cache Exact.Synth.mig_config;
    kernel = Algo.Resub.Maj3;
    cost;
  }

let xmg_env ?(cost = Algo.Cost.Spec.Area) ?cache () =
  {
    db = Exact.Database.create ?store:cache Exact.Synth.xmg_config;
    kernel = Algo.Resub.Maj3;
    cost;
  }

(* The typed run configuration selects the whole env in one step. *)
let env_of_config (cfg : Run_config.t) =
  let mk =
    match cfg.Run_config.representation with
    | Run_config.Aig -> aig_env
    | Run_config.Mig -> mig_env
    | Run_config.Xag -> xag_env
    | Run_config.Xmg -> xmg_env
  in
  let cost =
    match Algo.Cost.Spec.of_string cfg.Run_config.cost with
    | Ok c -> c
    | Error e -> invalid_arg ("run config: " ^ e)
  in
  mk ~cost ?cache:cfg.Run_config.cache ()

(* Snapshot the exact-synthesis database counters into the trace as
   metrics gauges (algo "exact_db"), so report/QoR tooling can see cache
   behaviour per run. *)
let emit_db_metrics (env : env) trace =
  if Obs.Trace.enabled trace then begin
    let m = Obs.Metrics.create ~algo:"exact_db" () in
    List.iter
      (fun (name, v) -> Obs.Metrics.set (Obs.Metrics.gauge m name) v)
      (Exact.Database.obs_gauges env.db);
    Obs.Metrics.emit m trace
  end

(* Exact synthesis sits below the obs layer and is shared across domains,
   so it keeps process-wide atomic counters (Exact.Synth.telemetry); the
   engine samples them around each pass and publishes the delta inside
   the span as "exact_sat" gauges.  The [solver_*] keys feed the per-pass
   SAT totals in Trace.summarize. *)
let emit_exact_sat_delta trace before =
  let after = Exact.Synth.telemetry () in
  let delta =
    List.map
      (fun (k, v) ->
        ( k,
          v - (match List.assoc_opt k before with Some b -> b | None -> 0) ))
      after
  in
  if Obs.Trace.enabled trace && List.exists (fun (_, v) -> v <> 0) delta
  then begin
    let m = Obs.Metrics.create ~algo:"exact_sat" () in
    List.iter
      (fun (name, v) -> Obs.Metrics.set (Obs.Metrics.gauge m name) v)
      delta;
    Obs.Metrics.emit m trace
  end

(* One graceful-degradation record from a defensive script run: which
   pass gave up and why.  Reasons are a small closed vocabulary so
   consumers (exit codes, dashboards) can switch on them:
   "deadline" (wall-clock budget expired before/inside the pass),
   "exception" (the pass raised; the network was rolled back to the last
   checkpoint), "interrupt" (the caller's [stop] hook asked to wind
   down).  [Partition.run] reports its pieces and stitch in the same
   records. *)
type degradation = { d_pass : string; d_reason : string; d_detail : string }

(* A degradation record, also emitted as a trace event. *)
let degrade trace ~pass ~reason ~detail =
  Obs.Trace.degraded trace ~pass ~reason ~detail;
  { d_pass = pass; d_reason = reason; d_detail = detail }

module Make (N : Network.Intf.NETWORK) = struct
  module Copy = Network.Convert.Make (N) (N)
  module Bal = Algo.Balance.Make (N)
  module Rw = Algo.Rewrite.Make (N)
  module Rf = Algo.Refactor.Make (N)
  module Rs = Algo.Resub.Make (N)
  module Dp = Algo.Depth.Make (N)
  module Cl = Network.Convert.Cleanup (N)
  module Fr = Algo.Fraig.Make (N)
  module Co = Algo.Cost.Make (N)

  (* (gates, depth) *)
  let network_stats (net : N.t) = (N.num_gates net, Dp.depth net)

  let dispatch (env : env) ~trace (net : N.t) (cmd : Script.command) : unit =
    if Fault.active () then Fault.fire "engine.pass";
    match cmd with
    | Script.Balance -> ignore (Bal.run ~trace ~cost:env.cost net)
    | Script.Rewrite { zero_gain } ->
      ignore
        (Rw.run net ~db:env.db ~trace ~cost:env.cost
           ~allow_zero_gain:zero_gain ())
    | Script.Refactor { zero_gain } ->
      ignore (Rf.run net ~trace ~cost:env.cost ~allow_zero_gain:zero_gain ())
    | Script.Resub { cut_size; max_inserted } ->
      ignore
        (Rs.run net ~kernel:env.kernel ~trace ~cost:env.cost
           ~max_leaves:cut_size ~max_inserted ())
    | Script.Fraig ->
      ignore (Fr.run net ~trace ~cost:env.cost ())

  (* Interpret one script command as a traced span (see [Obs.Trace.span]):
     gate count and depth before and after, the GC work the pass caused,
     and the exact-synthesis SAT work as an "exact_sat" metrics event
     inside the span. *)
  let run_command (env : env) ?(trace = Obs.Trace.null) ?(index = 0)
      (net : N.t) (cmd : Script.command) : unit =
    let stats () = network_stats net in
    Obs.Trace.span trace ~pass:(Script.to_string cmd) ~index ~before:stats
      ~after:stats (fun () ->
        let x0 = Exact.Synth.telemetry () in
        dispatch env ~trace net cmd;
        emit_exact_sat_delta trace x0)

  (* The final sweep, traced as its own "cleanup" span so the last
     [pass_end] reports the stats of the network actually returned. *)
  let cleanup_pass (env : env) ~trace ~index (net : N.t) : N.t =
    let cleaned =
      Obs.Trace.span trace ~pass:"cleanup" ~index
        ~before:(fun () -> network_stats net)
        ~after:network_stats
        (fun () -> Cl.cleanup net)
    in
    emit_db_metrics env trace;
    cleaned

  (* The one script interpreter.  Runs the passes in place and returns a
     cleaned-up copy (dangling nodes swept) plus the degradation records.

     The run is *armed* when a [deadline] (absolute wall clock, 0 = none)
     or a [stop] hook is given, or fault injection is active.  Only an
     armed run can roll back, so only an armed run keeps a checkpoint:

     - Before each pass the deadline and the stop hook are checked;
       tripping either ends the run at the last checkpoint with a
       "deadline"/"interrupt" marker.
     - A pass that raises is rolled back: the in-place network may be
       mid-rewrite, so work resumes from a copy of the checkpoint, and an
       "exception" marker records the pass.  Later passes still run.
     - The checkpoint is the best network so far by the env's objective
       as a lexicographic (objective, gates, depth) triple (for the
       default area objective this is the historical (gates, depth)
       order), [<=] so zero-gain passes (rwz/rfz) keep their semantics of
       refreshing it.

     An unarmed run takes no copy, evaluates no network cost and lets a
     pass exception propagate.  The degradation list is empty iff the
     run behaved exactly like an unarmed one.  Each marker is also
     emitted as a trace event plus an "engine" metrics counter, so
     offline consumers see degraded runs without the caller's help. *)
  let run_script_safe (env : env) ?(trace = Obs.Trace.null) ?(deadline = 0.)
      ?stop (net : N.t) (script : string) : N.t * degradation list =
    let commands = Script.parse script in
    let armed = deadline > 0. || stop <> None || Fault.active () in
    let degradations = ref [] in
    let note pass reason detail =
      degradations := degrade trace ~pass ~reason ~detail :: !degradations
    in
    let eng = Co.engine env.cost in
    let cost (n : N.t) = Co.network_cost eng n in
    let best = ref (if armed then Copy.convert net else net) in
    let best_cost = ref (if armed then cost net else (0, 0, 0)) in
    let work = ref net in
    let rec loop i = function
      | [] -> ()
      | cmd :: rest ->
        let pass = Script.to_string cmd in
        if (match stop with Some p -> p () | None -> false) then
          note pass "interrupt" "stop requested; returning best-so-far"
        else if deadline > 0. && Unix.gettimeofday () >= deadline then
          note pass "deadline"
            "wall-clock budget exhausted; returning best-so-far"
        else begin
          (if not armed then run_command env ~trace ~index:i !work cmd
           else
             match run_command env ~trace ~index:i !work cmd with
             | () ->
               let c = cost !work in
               if c <= !best_cost then begin
                 best := Copy.convert !work;
                 best_cost := c
               end
             | exception e ->
               note pass "exception" (Printexc.to_string e);
               (* the in-place network may be mid-rewrite: resume from a
                  fresh copy of the last good checkpoint *)
               work := Copy.convert !best);
          loop (i + 1) rest
        end
    in
    loop 0 commands;
    let degradations = List.rev !degradations in
    if degradations <> [] && Obs.Trace.enabled trace then begin
      let m = Obs.Metrics.create ~algo:"engine" () in
      Obs.Metrics.add
        (Obs.Metrics.counter m "degraded")
        (List.length degradations);
      Obs.Metrics.emit m trace
    end;
    let result = if degradations = [] then !work else !best in
    (cleanup_pass env ~trace ~index:(List.length commands) result, degradations)

  (* Run a script in place with nothing armed; returns a cleaned-up copy.
     Raises if a pass raises. *)
  let run_script (env : env) ?trace (net : N.t) (script : string) : N.t =
    fst (run_script_safe env ?trace net script)
end
