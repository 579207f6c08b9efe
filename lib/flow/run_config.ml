(* One typed record for every run-configuration knob.

   Each setting has exactly one source: the CLI flag, whose default is
   taken from [default], or this record for library callers.  No
   environment variable overrides a field (fault injection alone is also
   armed from GENLOG_FAULTS, which [Fault_core] reads itself). *)

type representation = Aig | Mig | Xag | Xmg

type t = {
  representation : representation;
  script : string;  (* optimization script, e.g. Script.compress2rs *)
  trace_path : string option;  (* write a JSONL trace here *)
  stats : bool;  (* print the per-pass summary table *)
  partition : int;  (* partition size cap; 0 = whole-network flow *)
  jobs : int;  (* worker domains for partition/batch parallelism *)
  cost : string;  (* optimization objective spec, e.g. "area", "depth" *)
  cache : string option;  (* persistent exact-synthesis store path *)
  timeout : float;  (* wall-clock budget per network, seconds; 0 = none *)
  retries : int;  (* extra attempts for a failed batch/partition job *)
  faults : string option;  (* fault-injection spec (see Fault), testing only *)
}

(* Representation names, as the CLI spells them. *)
let representations = [ ("aig", Aig); ("mig", Mig); ("xag", Xag); ("xmg", Xmg) ]

let representation_to_string r =
  fst (List.find (fun (_, r') -> r' = r) representations)

let default =
  {
    representation = Aig;
    script = Script.compress2rs;
    trace_path = None;
    stats = false;
    partition = 0;
    jobs = Domain.recommended_domain_count ();
    cost = "area";
    cache = None;
    timeout = 0.;
    retries = 0;
    faults = None;
  }

let make ?(representation = default.representation) ?(script = default.script)
    ?trace_path ?(stats = false) ?(partition = 0)
    ?(jobs = default.jobs) ?(cost = default.cost) ?cache ?(timeout = 0.) ?(retries = 0) ?faults () =
  {
    representation;
    script;
    trace_path;
    stats;
    partition;
    jobs;
    cost;
    cache;
    timeout;
    retries;
    faults;
  }

(* A no-op, kept because perfbench still calls it: there is one SAT kernel. *)
let publish_kernel (_ : t) = ()
