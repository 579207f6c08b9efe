(* The repository benchmark: runs the path `genlog opt` takes on every
   circuit of a workload and reports wall time and QoR end to end, or,
   with --trace 1, time and counts per layer from spans recorded around
   the calls into each layer.

     perfbench.exe --workload cold_ctrl --seed 1 --seconds 25 --trace 0

   Per circuit the path is: read the generated AIGER text (Aiger.read),
   convert to the workload's representation, run compress2rs through
   Flow.Make(N).run_script_safe under the Engine.env_of_config env,
   convert back, write AIGER, and map into 6-LUTs.  Every written output
   is checked against its input by Aag_check, which shares no code with
   the library.

   The last line of standard output is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}. *)

open Genlog
module RC = Flow.Run_config

(* ---------- small helpers ---------- *)

(* Times are measured as CPU time of this process (user plus system,
   from getrusage).  The benchmark runs one domain, so this is the time
   the work takes on a core of its own; wall time on a shared host also
   counts the time other processes hold the core.  Only the run window
   (--seconds) is wall time. *)
let now = Sys.time
let wall = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.

(* ---------- speed probe ---------- *)

(* The host's speed for this code drifts by up to a factor of two over
   minutes without any steal time, as other tenants load the machine, and
   CPU time drifts with it.  So every reported time is scaled to a
   reference speed.  The work is interleaved with a fixed probe, and its
   CPU time is multiplied by [probe_ref_s] over the probes' mean time.
   The probe has two halves, each of which tracked the flow's pass time
   when the host slowed: a branchy integer loop that touches no memory,
   and a loop that allocates short lists and records and indexes them in
   a hash table, so it also pays for allocation, the minor GC and cache
   misses.  It uses only the standard library, so a change to the
   library under test does not change its cost.  A probe takes 25-33 ms;
   [probe_ref_s] is a fixed nominal time for it (README.md). *)
let probe_ref_s = 0.025
let probes : float list ref = ref []  (* raw probe times, for the report *)

type probe_node = { key : int; v : int; next : probe_node list }

let probe () =
  let t0 = now () in
  let x = ref 88172645463325252 and acc = ref 0 in
  for _ = 1 to 2_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    if !x land 3 = 0 then incr acc else acc := !acc lxor !x
  done;
  let h = Hashtbl.create 16 and l = ref [] in
  for i = 1 to 20_000 do
    let n = { key = i; v = i; next = (match !l with y :: _ -> [ y ] | [] -> []) } in
    l := n :: (if i land 63 = 0 then [] else !l);
    Hashtbl.replace h (i * 7919 land 65535) n
  done;
  Hashtbl.iter (fun _ n -> acc := !acc + n.key + n.v + List.length n.next) h;
  ignore (Sys.opaque_identity !acc);
  let dt = now () -. t0 in
  probes := dt :: !probes;
  dt

(* [phase f] runs [f step], where [f] calls [step] after each of its units
   of work and [step] runs a probe.  Returns [f]'s result and the phase's
   scale: [probe_ref_s] over the mean of its probes, one before the first
   unit and one after each.  One mean per phase is steadier than scaling
   each unit by the two short probes around it. *)
let phase f =
  let ps = ref [ probe () ] in
  let r = f (fun () -> ps := probe () :: !ps) in
  (r, probe_ref_s *. float_of_int (List.length !ps) /. sum !ps)

let read_text path = In_channel.with_open_bin path In_channel.input_all

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* peak resident set size of this process, from the kernel's high-water
   mark; falls back to the GC's top heap size *)
let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec scan () =
            match In_channel.input_line ic with
            | None -> None
            | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
                (fun kb -> Some (float_of_int kb /. 1024.))
            | Some _ -> scan ()
          in
          scan ())
    with _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

(* ---------- spans (traced runs only) ---------- *)

(* One record per call into a layer: kept in memory and written out when
   the run ends.  [parent] is the enclosing span's id (-1 at top level);
   spans of one circuit job share [job]. *)
type span = {
  id : int;
  name : string;
  parent : int;
  job : int;
  start : float;
  stop : float;
}

let spans : span list ref = ref []
let open_spans : int list ref = ref []
let next_span = ref 0
let next_job = ref 0

let with_span ~job name f =
  let id = !next_span in
  incr next_span;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let start = now () in
  let finish () =
    open_spans := List.tl !open_spans;
    let sp = { id; name; parent; job; start; stop = now () } in
    spans := sp :: !spans;
    sp.stop -. sp.start
  in
  match f () with
  | r -> (r, finish ())
  | exception e ->
    ignore (finish ());
    raise e

let write_spans path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"job\":%d,\"start\":%.6f,\"end\":%.6f}\n"
            s.id s.name s.parent s.job s.start s.stop)
        (List.rev !spans))

(* Per-repetition layer measurements, keyed by metric name. *)
type acc = (string, float) Hashtbl.t

let bump (acc : acc) name v =
  Hashtbl.replace acc name
    (v +. Option.value ~default:0. (Hashtbl.find_opt acc name))

(* ---------- workloads ---------- *)

module Sg = Suite_gen.Make (Aig)
module Ct = Control.Make (Aig)

type rep_kind = Aig_rep | Mig_rep

type workload = {
  name : string;
  rep : rep_kind;
  fresh_db : bool;  (* one fresh database per circuit (no --cache) *)
  circuits : (string * (Aig.t -> unit)) list;
}

let random_logic seed ~pis ~pos ~gates t =
  Ct.random_logic t ~seed ~num_pis:pis ~num_pos:pos ~num_gates:gates

(* Why each workload exists and what share of its time each pass takes
   is in README.md; circuit sizes are bounded by keeping one run under a
   minute, warm-up included. *)
let workloads =
  [
    {
      name = "cold_ctrl";
      rep = Aig_rep;
      fresh_db = true;
      circuits =
        List.init 16 (fun i ->
            ( Printf.sprintf "ctrl%d" i,
              random_logic (0xC80 + i) ~pis:5 ~pos:3 ~gates:(10 + (i mod 8)) ));
    };
    {
      name = "warm_arith";
      rep = Aig_rep;
      fresh_db = false;
      circuits =
        [
          ("log2_5", Sg.log2 ~width:5);
          ("div_8", Sg.div ~width:8);
          ("div_6", Sg.div ~width:6);
          ("div_5", Sg.div ~width:5);
          ("voter_51", Sg.voter ~n:51);
          ("voter_31", Sg.voter ~n:31);
          ("voter_21", Sg.voter ~n:21);
          ("mult_6", Sg.multiplier ~width:6);
          ("mult_5", Sg.multiplier ~width:5);
          ("mult_4", Sg.multiplier ~width:4);
          ("memctrl_600", random_logic 0x3E3 ~pis:60 ~pos:60 ~gates:600);
        ];
    };
    {
      name = "mig_warm";
      rep = Mig_rep;
      fresh_db = false;
      circuits =
        [
          ("voter_31", Sg.voter ~n:31);
          ("voter_21", Sg.voter ~n:21);
          ("voter_11", Sg.voter ~n:11);
          ("div_6", Sg.div ~width:6);
          ("div_5", Sg.div ~width:5);
          ("div_4", Sg.div ~width:4);
          ("ctrl_300", random_logic 0x707 ~pis:30 ~pos:30 ~gates:300);
          ("ctrl_150", random_logic 0x708 ~pis:20 ~pos:20 ~gates:150);
          ("ctrl_75", random_logic 0x708 ~pis:20 ~pos:10 ~gates:75);
        ];
    };
  ]

(* The seed complements a seeded subset of every base circuit's outputs.
   The result computes a different function, so the program cannot
   recognise a fixed input, while every flow decision stays that of the
   base circuit: complementing inputs as well moved the summed MIG LUT
   count by up to 4% between seeds, and permuting them by up to 10%, more
   than the QoR regression bounds. *)
let relabel rng (src : Aig.t) : Aig.t =
  let dst = Aig.create ~initial_capacity:(Aig.size src) () in
  let map = Array.make (Aig.size src) (Aig.constant false) in
  Array.iter (fun pi -> map.(pi) <- Aig.create_pi dst) (Aig.pis src);
  let sig_of s =
    Aig.complement_if (Aig.is_complemented s) map.(Aig.node_of_signal s)
  in
  (* generated networks are built in topological node order *)
  for g = 0 to Aig.size src - 1 do
    if Aig.is_gate src g && not (Aig.is_dead src g) then begin
      let f = Aig.fanin src g in
      map.(g) <- Aig.create_and dst (sig_of f.(0)) (sig_of f.(1))
    end
  done;
  Array.iter
    (fun s -> Aig.create_po dst (Aig.complement_if (Random.State.bool rng) (sig_of s)))
    (Aig.pos src);
  dst

(* A generated input: its AIGER file, and the text the checker compares
   outputs with. *)
type input = { cname : string; path : string; out_path : string; text : string }

let generate ~dir ~seed (w : workload) ~layers : input list =
  List.mapi
    (fun i (cname, build) ->
      let base, dt =
        timed (fun () ->
            let t = Aig.create () in
            build t;
            t)
      in
      bump layers "lsgen.build_s" dt;
      let aig = relabel (Random.State.make [| seed; i |]) base in
      let path = Filename.concat dir (cname ^ ".aag") in
      Aiger.write_file aig path;
      {
        cname;
        path;
        out_path = Filename.concat dir (cname ^ ".out.aag");
        text = read_text path;
      })
    w.circuits

(* ---------- one job: the `genlog opt` path on one circuit ---------- *)

type result = {
  time : float;
  gates : int;
  levels : int;
  luts : int;
  lut_levels : int;
  failure : string option;
}

module type REP = sig
  module N : Intf.NETWORK

  val of_aig : Aig.t -> N.t
  val to_aig : N.t -> Aig.t
end

module Job (R : REP) = struct
  module N = R.N
  module F = Flow.Make (N)
  module D = Depth.Make (N)
  module Copy = Convert.Make (N) (N)
  module Cl = Convert.Cleanup (N)
  module Co = Cost.Make (N)
  module Cu = Cuts.Make (N)
  module L = Lutmap.Make (Aig)

  let script = Script.compress2rs

  (* the untraced path, timed as a whole *)
  let run env (inp : input) =
    let t0 = now () in
    let net = R.of_aig (Aiger.read_file inp.path) in
    let r, degs = F.run_script_safe env net script in
    let back = R.to_aig r in
    Aiger.write_file back inp.out_path;
    let m = L.map back ~k:6 () in
    let time = now () -. t0 in
    {
      time;
      gates = N.num_gates r;
      levels = D.depth r;
      luts = m.L.lut_count;
      lut_levels = m.L.depth;
      failure =
        (match degs with
        | [] -> None
        | d :: _ -> Some ("degraded: " ^ d.Flow.d_pass ^ " " ^ d.Flow.d_reason));
    }

  let pass_kind = function
    | Script.Balance -> "bz"
    | Script.Rewrite _ -> "rw"
    | Script.Refactor _ -> "rf"
    | Script.Resub _ -> "rs"
    | Script.Fraig -> "fraig"

  (* tried/accepted counters a pass published into its trace sink *)
  let counters sink algo =
    List.fold_left
      (fun (t, a) ev ->
        match ev with
        | Trace.Counters c when c.algo = algo ->
          let get k = Option.value ~default:0 (List.assoc_opt k c.counters) in
          (t + get "tried", a + get "accepted")
        | _ -> (t, a))
      (0, 0) (Trace.events sink)

  (* The same path with a span around every layer call.  The script loop
     is run_script_safe's, unrolled here so each run_command and each
     checkpoint copy gets its own span; the result must match the
     untraced run exactly. *)
  let run_traced env (acc : acc) (inp : input) =
    let job = !next_job in
    incr next_job;
    (* a span around one layer call; its time is summed per layer *)
    let span name f =
      let r, dt = with_span ~job name f in
      bump acc (name ^ "_s") dt;
      r
    in
    let net0 = R.of_aig (Aiger.read_file inp.path) in
    let cuts name k cut_limit =
      let r, dt = timed (fun () -> Cu.enumerate net0 ~k ~cut_limit ()) in
      bump acc (name ^ "_s") dt;
      if k = 4 then begin
        let count = ref 0 in
        for n = 0 to N.size net0 - 1 do
          count := !count + Array.length (Cu.cuts_array r n)
        done;
        bump acc (name ^ "_count") (float_of_int !count)
      end
    in
    cuts "algo.cuts_k4" 4 8;
    cuts "algo.cuts_k6" 6 12;
    let t0 = now () in
    let outcome, _ =
      with_span ~job "job" (fun () ->
          let aig = span "lsio.read" (fun () -> Aiger.read_file inp.path) in
          let net = span "network.convert" (fun () -> R.of_aig aig) in
          bump acc "network.gates_in" (float_of_int (N.num_gates net));
          let cost, best, best_cost =
            span "flow.checkpoint" (fun () ->
                let eng = Co.engine env.Flow.cost in
                let cost n = Co.network_cost eng n in
                (cost, ref (Copy.convert net), ref (cost net)))
          in
          let work = ref net and failed = ref None in
          List.iteri
            (fun i cmd ->
              let kind = pass_kind cmd in
              let g0 = N.num_gates !work in
              let sink = Trace.create () in
              match
                span ("flow." ^ kind) (fun () ->
                    F.run_command env ~trace:sink ~index:i !work cmd)
              with
              | () ->
                bump acc ("flow." ^ kind ^ "_gain")
                  (float_of_int (g0 - N.num_gates !work));
                (match kind with
                | "rw" | "rs" ->
                  let t, a =
                    counters sink (if kind = "rw" then "rewrite" else "resub")
                  in
                  bump acc ("flow." ^ kind ^ "_tried") (float_of_int t);
                  bump acc ("flow." ^ kind ^ "_accepted") (float_of_int a)
                | _ -> ());
                span "flow.checkpoint" (fun () ->
                    let c = cost !work in
                    if c <= !best_cost then begin
                      best := Copy.convert !work;
                      best_cost := c
                    end)
              | exception e ->
                failed := Some ("exception: " ^ Printexc.to_string e);
                work := span "flow.checkpoint" (fun () -> Copy.convert !best))
            (Script.parse script);
          let result = if !failed = None then !work else !best in
          let r = span "flow.cleanup" (fun () -> Cl.cleanup result) in
          let back = span "network.convert" (fun () -> R.to_aig r) in
          span "lsio.write" (fun () -> Aiger.write_file back inp.out_path);
          let m = span "algo.lutmap" (fun () -> L.map back ~k:6 ()) in
          (r, m, !failed))
    in
    let time = now () -. t0 in
    let r, m, failure = outcome in
    {
      time;
      gates = N.num_gates r;
      levels = D.depth r;
      luts = m.L.lut_count;
      lut_levels = m.L.depth;
      failure;
    }
end

module Aig_job = Job (struct
  module N = Aig

  let of_aig t = t
  let to_aig t = t
end)

module Mig_job = Job (struct
  module N = Mig
  module To = Convert.Make (Aig) (Mig)
  module Back = Convert.Make (Mig) (Aig)

  let of_aig = To.convert
  let to_aig = Back.convert
end)

let representation = function Aig_rep -> RC.Aig | Mig_rep -> RC.Mig

(* ---------- repetitions ---------- *)

type rep_result = {
  jobs : result list;  (* job times scaled to the reference speed *)
  flow : float;  (* summed job time *)
  cpu : float;  (* the same, unscaled *)
  qor : int * int * int * int;
}

let layer_names =
  [
    ("flow.rw_s", "s"); ("flow.rs_s", "s"); ("flow.rf_s", "s"); ("flow.bz_s", "s");
    ("flow.cleanup_s", "s"); ("flow.checkpoint_s", "s");
    ("flow.rw_gain", "count"); ("flow.rs_gain", "count");
    ("flow.rf_gain", "count"); ("flow.bz_gain", "count");
    ("flow.rw_accept_ratio", "ratio"); ("flow.rs_accept_ratio", "ratio");
    ("exact.db_lookups", "count"); ("exact.db_misses", "count");
    ("exact.db_hit_ratio", "ratio"); ("exact.db_failures", "count");
    ("exact.store_load_s", "s"); ("exact.store_loaded", "count");
    ("exact.store_flush_s", "s");
    ("satkit.exact_calls", "count"); ("satkit.exact_conflicts", "count");
    ("satkit.exact_propagations", "count"); ("satkit.exact_unknown", "count");
    ("algo.cuts_k4_s", "s"); ("algo.cuts_k4_count", "count");
    ("algo.cuts_k6_s", "s"); ("algo.lutmap_s", "s");
    ("network.convert_s", "s"); ("network.gates_in", "count");
    ("lsio.read_s", "s"); ("lsio.write_s", "s"); ("lsgen.build_s", "s");
    ("check_s", "s"); ("trace.overhead_ratio", "ratio");
    ("trace.span_coverage", "ratio");
  ]

let telemetry () = Exact_synth.telemetry ()

let telemetry_delta before after key =
  float_of_int
    (Option.value ~default:0 (List.assoc_opt key after)
    - Option.value ~default:0 (List.assoc_opt key before))

type state = {
  w : workload;
  seed : int;
  shared : Flow.env option;  (* the warm database, reloaded from its store *)
  inputs : input list;
}

let make_env st =
  match st.shared with
  | Some env -> env
  | None -> Flow.env_of_config (RC.make ~representation:(representation st.w.rep) ())

let run_job rep ~traced acc env inp =
  match (rep, traced) with
  | Aig_rep, false -> Aig_job.run env inp
  | Aig_rep, true -> Aig_job.run_traced env acc inp
  | Mig_rep, false -> Mig_job.run env inp
  | Mig_rep, true -> Mig_job.run_traced env acc inp

(* layer measurements of a phase, added to [acc] with times scaled by the
   phase's scale [k] *)
let merge_scaled (acc : acc) (jacc : acc) k =
  Hashtbl.iter
    (fun name v -> bump acc name (if String.ends_with ~suffix:"_s" name then v *. k else v))
    jacc

(* One pass over every circuit.  A job fails if it raises, returns a
   degradation marker, or its written output does not check. *)
let repetition st ~traced acc : rep_result =
  Gc.compact ();
  let x0 = telemetry () in
  let db_stats env = Database.stats env.Flow.db in
  let bump_db (h0, m0, f0) (h, m, f) =
    bump acc "exact.db_lookups" (float_of_int (h - h0 + m - m0));
    bump acc "exact.db_misses" (float_of_int (m - m0));
    bump acc "exact.db_failures" (float_of_int (f - f0))
  in
  let check = ref 0. in
  let pass_acc : acc = Hashtbl.create 64 in
  let jobs, k =
    phase @@ fun step ->
    List.map
      (fun inp ->
        let env = make_env st in
        let before = db_stats env in
        let res =
          match run_job st.w.rep ~traced pass_acc env inp with
          | r -> r
          | exception e ->
            { time = 0.; gates = 0; levels = 0; luts = 0; lut_levels = 0;
              failure = Some ("exception: " ^ Printexc.to_string e) }
        in
        step ();
        bump_db before (db_stats env);
        let failure, dt =
          timed (fun () ->
              if res.failure <> None then res.failure
              else
                match
                  Aag_check.equivalent ~seed:st.seed ~input:inp.text
                    ~output:(read_text inp.out_path)
                with
                | Ok () -> None
                | Error e -> Some ("check: " ^ e))
        in
        check := !check +. dt;
        Option.iter (Printf.eprintf "perfbench: %s: %s\n%!" inp.cname) failure;
        { res with failure })
      st.inputs
  in
  merge_scaled acc pass_acc k;
  let cpu = sum (List.map (fun r -> r.time) jobs) in
  let jobs = List.map (fun r -> { r with time = r.time *. k }) jobs in
  let x1 = telemetry () in
  List.iter
    (fun (name, key) -> bump acc name (telemetry_delta x0 x1 key))
    [
      ("satkit.exact_calls", "calls");
      ("satkit.exact_conflicts", "solver_conflicts");
      ("satkit.exact_propagations", "solver_propagations");
      ("satkit.exact_unknown", "unknown");
    ];
  bump acc "check_s" (!check *. k);
  let qor =
    List.fold_left
      (fun (g, l, k, kl) r -> (g + r.gates, l + r.levels, k + r.luts, kl + r.lut_levels))
      (0, 0, 0, 0) jobs
  in
  { jobs; flow = sum (List.map (fun r -> r.time) jobs); cpu; qor }

(* ---------- setup ---------- *)

type setup = {
  st : state;
  setup_s : float;
  layers : acc;  (* set-up phase layer measurements *)
}

(* The first pass over every circuit.  It fills the process-global NPN
   canonization cache with exactly the functions every timed pass sees
   (the cache cannot be reset from outside the library).  On warm
   workloads it is also the first `genlog opt --cache STORE` run: every
   circuit runs against one fresh database attached to a new store, which
   is then flushed.  Returns the config that reloads the store, and the
   pass's time scaled to the reference speed. *)
let warm_up ~dir w inputs layers =
  let representation = representation w.rep in
  let acc = Hashtbl.create 1 in
  let (cfg, total, flush_s), k =
    phase @@ fun step ->
    let jobs env =
      sum
        (List.map
           (fun inp ->
             let (), dt = timed (fun () -> ignore (run_job w.rep ~traced:false acc (env ()) inp)) in
             step ();
             dt)
           inputs)
    in
    if w.fresh_db then
      (None, jobs (fun () -> Flow.env_of_config (RC.make ~representation ())), None)
    else begin
      let store = Filename.concat dir "warm.store" in
      if Sys.file_exists store then Sys.remove store;
      let cfg = RC.make ~representation ~cache:store () in
      let env, open_s = timed (fun () -> Flow.env_of_config cfg) in
      let jobs_s = jobs (fun () -> env) in
      let (), flush_s = timed (fun () -> Database.flush env.Flow.db) in
      step ();
      (Some cfg, open_s +. jobs_s +. flush_s, Some flush_s)
    end
  in
  Option.iter (fun f -> Hashtbl.replace layers "exact.store_flush_s" (f *. k)) flush_s;
  (cfg, total *. k)

let setup_reps = 15

(* [setup_s] is the warm-up pass plus the median of [setup_reps] repeats of
   input generation and, on warm workloads, the store load.  The warm-up
   runs once: it costs a whole cold pass (15-25 s on warm workloads). *)
let setup ~dir ~seed (w : workload) : setup =
  let layers : acc = Hashtbl.create 16 in
  let cfg, warm_s =
    warm_up ~dir w (generate ~dir ~seed w ~layers:(Hashtbl.create 1)) layers
  in
  let runs =
    List.init setup_reps (fun _ ->
        let l : acc = Hashtbl.create 1 in
        let ((inputs, env, load_s), dt), k =
          phase @@ fun step ->
          let r =
            timed (fun () ->
                let inputs = generate ~dir ~seed w ~layers:l in
                match cfg with
                | None -> (inputs, None, 0.)
                | Some cfg ->
                  let env, dt = timed (fun () -> Flow.env_of_config cfg) in
                  (inputs, Some env, dt))
          in
          step ();
          r
        in
        (inputs, env, Hashtbl.find l "lsgen.build_s" *. k, load_s *. k, dt *. k))
  in
  let inputs, shared, _, _, _ = List.hd runs in
  let med f = median (List.map f runs) in
  Hashtbl.replace layers "lsgen.build_s" (med (fun (_, _, b, _, _) -> b));
  Option.iter
    (fun env ->
      Hashtbl.replace layers "exact.store_load_s" (med (fun (_, _, _, l, _) -> l));
      Hashtbl.replace layers "exact.store_loaded"
        (float_of_int (Database.store_info env.Flow.db).Database.loaded))
    shared;
  {
    st = { w; seed; shared; inputs };
    setup_s = warm_s +. med (fun (_, _, _, _, dt) -> dt);
    layers;
  }

(* ---------- output ---------- *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

(* Untraced runs measure at least [min_passes] passes.  The tail is the
   highest percentile with at least ten jobs beyond it in a run of exactly
   [min_passes] passes; a run with more passes reports the same
   percentile, so every run of a workload reports the same statistic. *)
let min_passes = 3

let tail_percentile ~jobs_per_pass =
  let n = min_passes * jobs_per_pass in
  float_of_int (max 1 (n - 10)) /. float_of_int n

(* nearest-rank percentile *)
let percentile p times =
  let a = Array.of_list times in
  Array.sort compare a;
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)) - 1)))

(* ---------- main ---------- *)

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15. and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let traced_run = !trace = 1 in
  let dir =
    Filename.concat "perfbench"
      (Filename.concat "out" (Printf.sprintf "run-%d" (Unix.getpid ())))
  in
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Printf.printf "{\"meta\": {%s, \"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %d}}\n%!"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) (Runmeta.fields ())))
    w.name !seed !seconds !trace;
  RC.publish_kernel (RC.make ());
  let s = setup ~dir ~seed:!seed w in
  let st = s.st in
  (* Every timed repetition starts from the same process state: the
     warm-up has filled the NPN canonization cache, the GC heap is
     compacted before each one, and solver telemetry is read as deltas. *)
  let t_end = wall () +. !seconds in
  let untraced = ref [] and traced = ref [] in
  (* stop before a repetition that would end past the window *)
  let last = ref 0. in
  let continue () =
    (if traced_run then !untraced = [] || !traced = []
     else List.length !untraced < min_passes)
    || wall () +. !last <= t_end
  in
  while continue () do
    let t0 = wall () in
    if (not traced_run) || List.length !untraced <= List.length !traced then
      untraced := repetition st ~traced:false (Hashtbl.create 1) :: !untraced
    else begin
      let acc : acc = Hashtbl.create 64 in
      traced := (repetition st ~traced:true acc, acc) :: !traced
    end;
    last := wall () -. t0
  done;
  let reps = List.rev !untraced @ List.map fst (List.rev !traced) in
  let all_jobs = List.concat_map (fun r -> r.jobs) reps in
  let attempted = List.length all_jobs in
  let failed = List.length (List.filter (fun r -> r.failure <> None) all_jobs) in
  (* QoR must not depend on the repetition or on tracing *)
  let qor0 = (List.hd reps).qor in
  let deterministic = List.for_all (fun r -> r.qor = qor0) reps in
  if not deterministic then prerr_endline "perfbench: QoR differs between repetitions";
  (* the checker must reject an output with one flipped literal *)
  let self_test =
    match st.inputs with
    | [] -> false
    | inp :: _ ->
      let out = read_text inp.out_path in
      Aag_check.equivalent ~seed:st.seed ~input:inp.text ~output:out = Ok ()
      && Aag_check.equivalent ~seed:st.seed ~input:inp.text
           ~output:(Aag_check.flip_first_output out)
         <> Ok ()
  in
  if not self_test then prerr_endline "perfbench: checker self-test failed";
  (* in a traced run, the pass, checkpoint, convert, I/O and mapping spans
     must account for each job span: what they leave uncovered is the
     benchmark's own bookkeeping, at most 5% of the job plus 2 ms *)
  let coverage, coverage_ok =
    if not traced_run then (1., true)
    else begin
      let children = Hashtbl.create 256 in
      List.iter
        (fun (sp : span) ->
          if sp.parent >= 0 then
            Hashtbl.replace children sp.parent
              (sp.stop -. sp.start
              +. Option.value ~default:0. (Hashtbl.find_opt children sp.parent)))
        !spans;
      List.fold_left
        (fun (covered, total, ok) (sp : span) ->
          if sp.name = "job" then begin
            let d = sp.stop -. sp.start in
            let c = Option.value ~default:0. (Hashtbl.find_opt children sp.id) in
            (covered +. c, total +. d, ok && d -. c <= (0.05 *. d) +. 0.002)
          end
          else (covered, total, ok))
        (0., 0., true) !spans
      |> fun (c, t, ok) -> ((if t > 0. then c /. t else 1.), ok)
    end
  in
  if not coverage_ok then
    Printf.eprintf "perfbench: child spans leave part of a job span unaccounted (%.3f covered overall)\n%!"
      coverage;
  let correct = failed = 0 && deterministic && self_test && coverage_ok in
  let g, l, k, kl = qor0 in
  (* one row per circuit, from the first timed repetition *)
  List.iter2
    (fun inp (r : result) ->
      Printf.printf
        "{\"circuit\": %S, \"time_s\": %.6f, \"gates\": %d, \"levels\": %d, \"luts\": %d, \"lut_levels\": %d}\n"
        inp.cname r.time r.gates r.levels r.luts r.lut_levels)
    st.inputs (List.hd reps).jobs;
  let times = List.concat_map (fun r -> List.map (fun j -> j.time) r.jobs) !untraced in
  let p_tail = tail_percentile ~jobs_per_pass:(List.length st.inputs) in
  Printf.printf
    "{\"jobs\": %d, \"repetitions\": %d, \"tail_percentile\": %.1f, \"repetition_flow_s\": [%s], \"repetition_cpu_s\": [%s], \"probes\": %d, \"probe_median_s\": %.5f}\n%!"
    (List.length times) (List.length !untraced) (100. *. p_tail)
    (String.concat ", " (List.rev_map (fun r -> Printf.sprintf "%.4f" r.flow) !untraced))
    (String.concat ", " (List.rev_map (fun r -> Printf.sprintf "%.4f" r.cpu) !untraced))
    (List.length !probes) (median !probes);
  if not traced_run then begin
    print_result ~correct ~attempted ~failed
      [
        ("setup_s", "s", s.setup_s);
        ("flow_s", "s", median (List.map (fun r -> r.flow) !untraced));
        ("job_p50_s", "s", median times);
        ("job_tail_s", "s", percentile p_tail times);
        ("gates_out", "count", float_of_int g);
        ("levels_out", "count", float_of_int l);
        ("luts_out", "count", float_of_int k);
        ("lut_levels_out", "count", float_of_int kl);
        ("ok_ratio", "ratio", float_of_int (attempted - failed) /. float_of_int attempted);
        ("peak_rss_mb", "MB", peak_rss_mb ());
      ]
  end
  else begin
    let out = Filename.concat "perfbench" "out" in
    write_spans
      (Filename.concat out (Printf.sprintf "trace-%s-%d.jsonl" w.name !seed));
    let accs = List.map snd !traced in
    let value acc name =
      let get k = Option.value ~default:0. (Hashtbl.find_opt acc k) in
      match name with
      | "flow.rw_accept_ratio" | "flow.rs_accept_ratio" ->
        let p = String.sub name 0 7 in
        let t = get (p ^ "_tried") in
        if t > 0. then get (p ^ "_accepted") /. t else 0.
      | "exact.db_hit_ratio" ->
        let l = get "exact.db_lookups" in
        if l > 0. then (l -. get "exact.db_misses") /. l else 0.
      | _ -> get name
    in
    let untraced_flow = median (List.map (fun r -> r.flow) !untraced) in
    let traced_flow = median (List.map (fun (r, _) -> r.flow) !traced) in
    let metrics =
      List.map
        (fun (name, unit) ->
          let v =
            match name with
            | "trace.overhead_ratio" -> traced_flow /. untraced_flow
            | "trace.span_coverage" -> coverage
            | "exact.store_load_s" | "exact.store_loaded" | "exact.store_flush_s"
            | "lsgen.build_s" ->
              Option.value ~default:0. (Hashtbl.find_opt s.layers name)
            | _ -> median (List.map (fun acc -> value acc name) accs)
          in
          (name, unit, v))
        layer_names
    in
    print_result ~correct ~attempted ~failed metrics
  end
