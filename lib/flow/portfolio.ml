(* The portfolio approach advocated in the paper's §3: run the same generic
   flow with every representation, map each result into 6-LUTs, and keep
   the best.  Also the driver behind Table 2's per-representation
   columns.

   The roster is [Run_config.representations] (AIG/MIG/XAG/XMG), each
   member built from its row of the layer-4 table ([Engine.representation]).

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

(* One portfolio member.  The baseline is converted, and the env built, on
   the *calling* domain (conversion marks traversal state on the source);
   the returned thunk is safe to run on a spawned domain.  Every member,
   AIG included, optimizes its own copy: [run_script] works in place and
   the caller still owns [baseline]. *)
let stage name rep ~script ~trace (baseline : Aig.t) =
  let module R = (val Engine.representation rep) in
  let module F = Engine.Make (R.N) in
  let module L = Algo.Lutmap.Make (R.N) in
  let module Conv = Convert.Make (Aig) (R.N) in
  let env = Engine.make_env rep in
  let child = Obs.Trace.child trace ~flow:name in
  let net = Conv.convert baseline in
  let job () =
    let opt, t_opt =
      time_it (fun () -> F.run_script env ~trace:child net script)
    in
    let m, t_map = time_it (fun () -> L.map opt ~trace:child ~k:6 ()) in
    let nodes, levels = F.network_stats opt in
    {
      representation = name;
      nodes;
      levels;
      luts = m.L.lut_count;
      lut_levels = m.L.depth;
      time = t_opt +. t_map;
    }
  in
  (child, job)

(* Run the given script (default [Script.compress2rs]) on every
   representation and map each result into 6-LUTs.  Each member starts
   from a fresh exact-synthesis database, which the shipped 4-input table
   already fills for every cut rewriting asks about. *)
let run ?(script = Script.compress2rs) ?(trace = Obs.Trace.null)
    (baseline : Aig.t) : result =
  let staged =
    List.map
      (fun (name, rep) -> stage name rep ~script ~trace baseline)
      Run_config.representations
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
