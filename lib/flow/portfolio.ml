(* The portfolio approach advocated in the paper's §3: run the same generic
   flow with every representation, map each result into 6-LUTs, and keep
   the best.  Also the driver behind Table 2's per-representation
   columns.

   Portfolio members are first-class [JOB] modules, each packaging one
   representation's functor instantiations (engine, mapper, converter) plus
   its default environment.  The roster is AIG/MIG/XAG/XMG.

   The per-representation flows are independent — each owns its network
   copy, its exact-synthesis environment, and its trace sink — so they
   run on separate OCaml 5 domains and the portfolio costs the
   *maximum* of the per-representation times instead of their sum (see
   DESIGN.md, "Domain-parallel portfolio").  Conversions happen up front on
   the calling domain because [Convert] marks traversal state on the source
   network; sharing [baseline] across domains would race.  Each domain
   writes only its own child sink; the parent merges them in join order, so
   tracing needs no lock. *)

open Network

type entry = {
  representation : string;
  nodes : int;      (* gates after optimization *)
  levels : int;     (* depth after optimization *)
  luts : int;       (* 6-LUTs after mapping *)
  lut_levels : int;
  time : float;     (* optimization + mapping seconds *)
}

type result = {
  entries : entry list;
  best : entry;  (* fewest LUTs *)
}

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* One portfolio member.  [stage] converts the baseline on the *calling*
   domain (conversion marks traversal state on the source) and returns a
   thunk that is safe to run on a spawned domain. *)
module type JOB = sig
  val representation : string
  val default_env : unit -> Engine.env

  val stage :
    env:Engine.env ->
    script:string ->
    trace:Obs.Trace.t ->
    Aig.t ->
    unit ->
    entry
end

module Make_job
    (N : Intf.NETWORK) (R : sig
      val representation : string
      val default_env : unit -> Engine.env
    end) : JOB = struct
  module F = Engine.Make (N)
  module L = Algo.Lutmap.Make (N)
  module Conv = Convert.Make (Aig) (N)

  let representation = R.representation
  let default_env = R.default_env

  let stage ~env ~script ~trace baseline =
    let net = Conv.convert baseline in
    fun () ->
      let opt, t_opt = time_it (fun () -> F.run_script env ~trace net script) in
      let m, t_map = time_it (fun () -> L.map opt ~trace ~k:6 ()) in
      let s = F.network_stats opt in
      {
        representation;
        nodes = s.Engine.nodes;
        levels = s.Engine.levels;
        luts = m.L.lut_count;
        lut_levels = m.L.depth;
        time = t_opt +. t_map;
      }
end

module Job_aig =
  Make_job
    (Aig)
    (struct
      let representation = "aig"
      let default_env () = Engine.aig_env ()
    end)

module Job_mig =
  Make_job
    (Mig)
    (struct
      let representation = "mig"
      let default_env () = Engine.mig_env ()
    end)

module Job_xag =
  Make_job
    (Xag)
    (struct
      let representation = "xag"
      let default_env () = Engine.xag_env ()
    end)

module Job_xmg =
  Make_job
    (Xmg)
    (struct
      let representation = "xmg"
      let default_env () = Engine.xmg_env ()
    end)

let jobs : (module JOB) list =
  [ (module Job_aig); (module Job_mig); (module Job_xag); (module Job_xmg) ]

(* Run the given script (default [Script.compress2rs]) on every
   representation and map each result into 6-LUTs.  Pass [envs] (keyed by
   representation name) to reuse exact-synthesis databases across
   benchmarks — they are keyed by NPN class, so they warm up once per
   process; each environment is only ever touched by its own
   representation's domain. *)
let run ?(script = Script.compress2rs) ?(envs = []) ?(trace = Obs.Trace.null)
    (baseline : Aig.t) : result =
  let staged =
    List.map
      (fun (module J : JOB) ->
        let env =
          match List.assoc_opt J.representation envs with
          | Some e -> e
          | None -> J.default_env ()
        in
        let child = Obs.Trace.child trace ~flow:J.representation in
        (child, J.stage ~env ~script ~trace:child baseline))
      jobs
  in
  let entries =
    match staged with
    | [] -> assert false
    | (_, first) :: rest ->
      (* first job on the calling domain, the rest on spawned domains *)
      let spawned = List.map (fun (_, job) -> Domain.spawn job) rest in
      let first_entry = first () in
      first_entry :: List.map Domain.join spawned
  in
  Obs.Trace.merge trace (List.map fst staged);
  (* one roster-level record so the merged trace is self-describing:
     how many jobs ran and how many hardware domains the host offers
     (the chrome export shows one [tid] track per job flow) *)
  Obs.Trace.report trace ~algo:"portfolio"
    [
      ("jobs", List.length staged);
      ("recommended_domains", Domain.recommended_domain_count ());
    ];
  let best =
    match entries with
    | first :: rest ->
      List.fold_left (fun acc e -> if e.luts < acc.luts then e else acc) first rest
    | [] -> assert false
  in
  { entries; best }
