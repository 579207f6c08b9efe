(* The flow engine: interprets optimization scripts against any network
   representation.  An [env] bundles the two representation-specific
   choices — the exact-synthesis database feeding rewriting and the
   resubstitution kernel — which is precisely the paper's layer-4
   specialization surface, built from the representation's row of the
   table below; everything else is shared. *)

type env = {
  db : Exact.Database.t;
  kernel : Algo.Resub.kernel;
  cost : Algo.Cost.Spec.t;  (* optimization objective for every pass *)
}

(* The layer-4 table: one row per representation holding everything the
   flows choose per representation — the network module, its conversion
   from and back to the AIG that the CLI reads and writes, the
   exact-synthesis operator set feeding rewriting, and the resubstitution
   kernel.  [make_env], the portfolio, the CLI and the benchmark tables
   all read it. *)
module type REPRESENTATION = sig
  module N : Network.Intf.NETWORK

  val of_aig : Network.Aig.t -> N.t
  val to_aig : N.t -> Network.Aig.t
  val synth : Exact.Synth.config
  val kernel : Algo.Resub.kernel
end

(* The network half of a row that converts from and back to AIG. *)
module Via_aig (N : Network.Intf.NETWORK) = struct
  module N = N
  module To = Network.Convert.Make (Network.Aig) (N)
  module Back = Network.Convert.Make (N) (Network.Aig)

  let of_aig = To.convert
  let to_aig = Back.convert
end

let representation : Run_config.representation -> (module REPRESENTATION) =
  function
  | Run_config.Aig ->
    (module struct
      module N = Network.Aig

      (* the AIG the CLI read passes straight through *)
      let of_aig = Fun.id
      let to_aig = Fun.id
      let synth = Exact.Synth.aig_config
      let kernel = Algo.Resub.And_or
    end)
  | Run_config.Mig ->
    (module struct
      include Via_aig (Network.Mig)

      let synth = Exact.Synth.mig_config
      let kernel = Algo.Resub.Maj3
    end)
  | Run_config.Xag ->
    (module struct
      include Via_aig (Network.Xag)

      let synth = Exact.Synth.xag_config
      let kernel = Algo.Resub.And_or_xor
    end)
  | Run_config.Xmg ->
    (module struct
      include Via_aig (Network.Xmg)

      let synth = Exact.Synth.xmg_config
      let kernel = Algo.Resub.Maj3
    end)

(* The env of a representation's row.  [cache] attaches the database to a
   persistent on-disk store (see Exact.Store): known NPN classes are
   loaded up front and new ones appended when the driver calls
   [Exact.Database.flush]. *)
let make_env ?(cost = Algo.Cost.Spec.Area) ?cache rep =
  let module R = (val representation rep) in
  { db = Exact.Database.create ?store:cache R.synth; kernel = R.kernel; cost }

(* The typed run configuration selects the whole env in one step. *)
let env_of_config (cfg : Run_config.t) =
  let cost =
    match Algo.Cost.Spec.of_string cfg.Run_config.cost with
    | Ok c -> c
    | Error e -> invalid_arg ("run config: " ^ e)
  in
  make_env ~cost ?cache:cfg.Run_config.cache cfg.Run_config.representation

(* Exact synthesis sits below the obs layer and is shared across domains,
   so it keeps process-wide atomic counters (Exact.Synth.telemetry); the
   engine samples them around each pass and reports the delta inside the
   span as one "exact_sat" counters event.  The [solver_*] keys feed the
   per-pass SAT totals in Trace.summarize. *)
let report_exact_sat_delta trace before =
  let after = Exact.Synth.telemetry () in
  let delta =
    List.map
      (fun (k, v) ->
        ( k,
          v - (match List.assoc_opt k before with Some b -> b | None -> 0) ))
      after
  in
  if List.exists (fun (_, v) -> v <> 0) delta then
    Obs.Trace.report trace ~algo:"exact_sat" delta

(* One graceful-degradation record from a defensive script run: which
   pass gave up and why.  Reasons are a small closed vocabulary so
   consumers (exit codes, dashboards) can switch on them:
   "deadline" (wall-clock budget expired before the pass),
   "exception" (the pass raised; the network was rolled back to the last
   checkpoint), "interrupt" (a signal asked to wind down); the first and
   the last are the caller's stop hook's answers.  [Partition.run]
   reports its pieces and stitch in the same records. *)
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
     and the exact-synthesis SAT work as an "exact_sat" counters event
     inside the span. *)
  let run_command (env : env) ?(trace = Obs.Trace.null) ?(index = 0)
      (net : N.t) (cmd : Script.command) : unit =
    let stats () = network_stats net in
    Obs.Trace.span trace ~pass:(Script.to_string cmd) ~index ~before:stats
      ~after:stats (fun () ->
        let x0 = Exact.Synth.telemetry () in
        dispatch env ~trace net cmd;
        report_exact_sat_delta trace x0)

  (* The final sweep, traced as its own "cleanup" span so the last
     [pass_end] reports the stats of the network actually returned. *)
  let cleanup_pass ~trace ~index (net : N.t) : N.t =
    Obs.Trace.span trace ~pass:"cleanup" ~index
      ~before:(fun () -> network_stats net)
      ~after:network_stats
      (fun () -> Cl.cleanup net)

  (* The one script interpreter.  Runs the passes in place and returns a
     cleaned-up copy (dangling nodes swept) plus the degradation records.

     [stop] is the caller's one stop hook: it returns the reason to wind
     down ("deadline" for an expired wall-clock budget, "interrupt" for a
     signal), or [None] to go on.  The run is *armed* when a [stop] hook
     is given or fault injection is active.  Only an armed run can roll
     back, so only an armed run keeps a checkpoint:

     - Before each pass the hook is polled; a reason ends the run at the
       last checkpoint with a marker carrying that reason.
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
     emitted as a trace event, so offline consumers see degraded runs
     without the caller's help. *)
  let run_script_safe (env : env) ?(trace = Obs.Trace.null) ?stop
      (net : N.t) (script : string) : N.t * degradation list =
    let commands = Script.parse script in
    let armed = stop <> None || Fault.active () in
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
        match Option.bind stop (fun p -> p ()) with
        | Some "deadline" ->
          note pass "deadline"
            "wall-clock budget exhausted; returning best-so-far"
        | Some reason ->
          note pass reason "stop requested; returning best-so-far"
        | None ->
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
    in
    loop 0 commands;
    let degradations = List.rev !degradations in
    let result = if degradations = [] then !work else !best in
    (cleanup_pass ~trace ~index:(List.length commands) result, degradations)

  (* Run a script in place with nothing armed; returns a cleaned-up copy.
     Raises if a pass raises. *)
  let run_script (env : env) ?trace (net : N.t) (script : string) : N.t =
    fst (run_script_safe env ?trace net script)
end
