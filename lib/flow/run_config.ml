(* One typed record for every run-configuration knob.

   Five PRs of growth sprawled the run surface into per-command optional
   arguments and ad-hoc environment variables; this module is the single
   place they all live.  Resolution order is

     built-in defaults  <  GENLOG_* environment  <  explicit flags

   — the CLI seeds its flag defaults from [of_env ()], so a flag given on
   the command line always wins, and an exported GENLOG_* variable wins
   over the built-ins.  The record round-trips to/from JSON so it can
   serve as the job spec of a future [genlog serve] daemon. *)

type representation = Aig | Mig | Xag | Xmg

type t = {
  representation : representation;
  script : string;  (* optimization script, e.g. Script.compress2rs *)
  trace_path : string option;  (* write a JSONL trace here *)
  stats : bool;  (* print the per-pass summary table *)
  sample : int;  (* node-event sampling rate; 0 = off *)
  partition : int;  (* partition size cap; 0 = whole-network flow *)
  jobs : int;  (* worker domains for partition/batch parallelism *)
  budget : int;  (* CEC conflict budget; 0 = ladder default, <0 = complete *)
  kernel : string;  (* SAT kernel: "modern" | "legacy" *)
  cost : string;  (* optimization objective spec, e.g. "area", "depth" *)
  cache : string option;  (* persistent exact-synthesis store path *)
  timeout : float;  (* wall-clock budget per network, seconds; 0 = none *)
  retries : int;  (* extra attempts for a failed batch/partition job *)
  faults : string option;  (* fault-injection spec (see Fault), testing only *)
}

let representation_to_string = function
  | Aig -> "aig"
  | Mig -> "mig"
  | Xag -> "xag"
  | Xmg -> "xmg"

let representation_of_string = function
  | "aig" -> Some Aig
  | "mig" -> Some Mig
  | "xag" -> Some Xag
  | "xmg" -> Some Xmg
  | _ -> None

let default =
  {
    representation = Aig;
    script = Script.compress2rs;
    trace_path = None;
    stats = false;
    sample = 0;
    partition = 0;
    jobs = Domain.recommended_domain_count ();
    budget = 0;
    kernel = "modern";
    cost = "area";
    cache = None;
    timeout = 0.;
    retries = 0;
    faults = None;
  }

let make ?(representation = default.representation) ?(script = default.script)
    ?trace_path ?(stats = false) ?(sample = 0) ?(partition = 0)
    ?(jobs = default.jobs) ?(budget = 0) ?(kernel = "modern")
    ?(cost = default.cost) ?cache ?(timeout = 0.) ?(retries = 0) ?faults () =
  {
    representation;
    script;
    trace_path;
    stats;
    sample;
    partition;
    jobs;
    budget;
    kernel;
    cost;
    cache;
    timeout;
    retries;
    faults;
  }

(* ------------------------------------------- environment override layer *)

let int_env name current =
  match Sys.getenv_opt name with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some v -> v
    | None -> current)
  | None -> current

let str_env name current =
  match Sys.getenv_opt name with
  | Some s when String.trim s <> "" -> String.trim s
  | _ -> current

let float_env name current =
  match Sys.getenv_opt name with
  | Some s -> (
    match float_of_string_opt (String.trim s) with
    | Some v -> v
    | None -> current)
  | None -> current

let opt_env name current =
  match Sys.getenv_opt name with
  | Some s when String.trim s <> "" -> Some (String.trim s)
  | _ -> current

let with_env cfg =
  {
    cfg with
    script = str_env "GENLOG_SCRIPT" cfg.script;
    sample = int_env "GENLOG_SAMPLE" cfg.sample;
    partition = int_env "GENLOG_PARTITION" cfg.partition;
    jobs = int_env "GENLOG_JOBS" cfg.jobs;
    budget = int_env "GENLOG_BUDGET" cfg.budget;
    kernel =
      (match str_env "GENLOG_SAT_KERNEL" cfg.kernel with
      | ("modern" | "legacy") as k -> k
      | _ -> cfg.kernel);
    cost =
      (let c = str_env "GENLOG_COST" cfg.cost in
       match Algo.Cost.Spec.validate_string c with
       | Ok () -> c
       | Error _ -> cfg.cost);
    cache = opt_env "GENLOG_CACHE" cfg.cache;
    timeout = float_env "GENLOG_TIMEOUT" cfg.timeout;
    retries = int_env "GENLOG_RETRIES" cfg.retries;
    faults = opt_env "GENLOG_FAULTS" cfg.faults;
  }

let of_env () = with_env default

(* ------------------------------------------------------------ SAT kernel *)

let solver_config cfg =
  if cfg.kernel = "legacy" then Satkit.Solver.legacy_config
  else Satkit.Solver.default_config

(* Deep layers (exact synthesis, fraig) pick their kernel with
   [Satkit.Solver.env_config] at solver-creation time; publish the
   resolved choice so a [kernel] set through the typed config reaches
   them too. *)
let publish_kernel cfg =
  if cfg.kernel = "legacy" then Unix.putenv "GENLOG_SAT_KERNEL" "legacy"
  else if Sys.getenv_opt "GENLOG_SAT_KERNEL" <> None then
    Unix.putenv "GENLOG_SAT_KERNEL" "modern"

(* ------------------------------------------------------------------ JSON *)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_string s = "\"" ^ escape s ^ "\""
let json_opt = function None -> "null" | Some s -> json_string s

let to_json cfg =
  Printf.sprintf
    "{\"representation\":%s,\"script\":%s,\"trace\":%s,\"stats\":%b,\"sample\":%d,\"partition\":%d,\"jobs\":%d,\"budget\":%d,\"kernel\":%s,\"cost\":%s,\"cache\":%s,\"timeout\":%.6g,\"retries\":%d,\"faults\":%s}"
    (json_string (representation_to_string cfg.representation))
    (json_string cfg.script) (json_opt cfg.trace_path) cfg.stats cfg.sample
    cfg.partition cfg.jobs cfg.budget (json_string cfg.kernel)
    (json_string cfg.cost) (json_opt cfg.cache) cfg.timeout cfg.retries
    (json_opt cfg.faults)

let of_json (j : Obs.Json.t) : (t, string) result =
  match j with
  | Obs.Json.Obj _ -> (
    let int k d = Option.value ~default:d (Obs.Json.int_member k j) in
    let bool k d =
      match Obs.Json.member k j with Some (Obs.Json.Bool b) -> b | _ -> d
    in
    let opt k =
      match Obs.Json.member k j with Some (Obs.Json.Str s) -> Some s | _ -> None
    in
    let rep =
      match Obs.Json.str_member "representation" j with
      | None -> Ok default.representation
      | Some s -> (
        match representation_of_string s with
        | Some r -> Ok r
        | None -> Error (Printf.sprintf "unknown representation %S" s))
    in
    let kernel =
      match Obs.Json.str_member "kernel" j with
      | None -> Ok default.kernel
      | Some (("modern" | "legacy") as k) -> Ok k
      | Some k -> Error (Printf.sprintf "unknown kernel %S" k)
    in
    let cost =
      match Obs.Json.str_member "cost" j with
      | None -> Ok default.cost
      | Some c -> (
        match Algo.Cost.Spec.validate_string c with
        | Ok () -> Ok c
        | Error e -> Error (Printf.sprintf "bad cost spec %S: %s" c e))
    in
    match (rep, kernel, cost) with
    | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
    | Ok representation, Ok kernel, Ok cost ->
      Ok
        {
          representation;
          script =
            Option.value ~default:default.script
              (Obs.Json.str_member "script" j);
          trace_path = opt "trace";
          stats = bool "stats" false;
          sample = int "sample" 0;
          partition = int "partition" 0;
          jobs = int "jobs" default.jobs;
          budget = int "budget" 0;
          kernel;
          cost;
          cache = opt "cache";
          timeout =
            Option.value ~default:default.timeout
              (Obs.Json.num_member "timeout" j);
          retries = int "retries" default.retries;
          faults = opt "faults";
        })
  | _ -> Error "run config must be a JSON object"

let of_json_string s =
  match Obs.Json.parse s with
  | exception Obs.Json.Parse_error m -> Error ("parse error: " ^ m)
  | j -> of_json j
