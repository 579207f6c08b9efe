(* Run metadata stamped on every trace and benchmark artifact so results
   are comparable across PRs and machines: without the producing commit,
   compiler version, and domain count, two BENCH_*.json files cannot be
   diffed responsibly.  The schema version is bumped whenever the event
   or row layout changes incompatibly, so [report] can refuse to join
   artifacts written by incompatible producers. *)

(* v1: PR 1 BENCH rows / PR 2 trace events.
   v2: gc deltas on pass_end, degraded events, meta stamping. *)
let schema_version = 2

(* Lazy: one subprocess per process, not one per artifact. *)
let git_head =
  lazy
    (try
       let ic =
         Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null"
       in
       let line = try input_line ic with End_of_file -> "" in
       match Unix.close_process_in ic with
       | Unix.WEXITED 0 when line <> "" -> line
       | _ -> "unknown"
     with _ -> "unknown")

(* GENLOG_GIT_COMMIT overrides the checkout's HEAD (builds from an
   exported tree have no .git). *)
let git_commit () =
  match Sys.getenv_opt "GENLOG_GIT_COMMIT" with
  | Some c when c <> "" -> c
  | _ -> Lazy.force git_head

let domains () = Domain.recommended_domain_count ()

let base () =
  [
    ("schema", Json.int schema_version);
    ("git_commit", Json.Str (git_commit ()));
    ("ocaml", Json.Str Sys.ocaml_version);
    ("domains", Json.int (domains ()));
  ]

(* The base key/value set as strings, for consumers that render it into
   their own format. *)
let fields () =
  List.map
    (fun (k, v) ->
      (k, match v with Json.Str s -> s | v -> Json.render v))
    (base ())

(* Optional per-run cache block: counters of the exact-synthesis store
   (hits, misses, loaded, flushed, ...) stamped by the driver via
   [set_cache].  Rendered into the trace meta line and BENCH headers only
   when set, so schema-v2 consumers that predate the block are
   unaffected. *)
let cache_fields : (string * int) list option ref = ref None
let set_cache kvs = cache_fields := Some kvs

(* Optional cost-objective spec ("area", "depth", "weights:FILE", ...)
   stamped by the driver via [set_cost]; rendered into the trace meta line
   and BENCH headers only when set, mirroring the cache block, so the QoR
   gate ([Report.check]) can refuse to compare runs optimized for
   different objectives. *)
let cost_field : string option ref = ref None
let set_cost spec = cost_field := Some spec

(* Every header field, typed: values keep their JSON type by key, so a
   digits-only commit hash is still a string. *)
let json_fields () =
  base ()
  @ (match !cache_fields with
    | Some kvs -> [ ("cache", Json.ints kvs) ]
    | None -> [])
  @ match !cost_field with Some s -> [ ("cost", Json.Str s) ] | None -> []
