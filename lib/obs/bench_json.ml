(* Machine-readable benchmark results.

   Every bench subcommand emits a [BENCH_<name>.json] next to the working
   directory so that successive PRs have a perf trajectory to regress
   against (see EXPERIMENTS.md).  A result file holds one row per
   (benchmark, stage) pair; fields are flat scalars.

   Living in the obs library (rather than next to the bench driver) makes
   the schema-v2 runmeta header a property of the writer itself: every
   subcommand that goes through [write] — sat and cache included — is
   stamped identically, which is what [report --check] compares. *)

type value = Int of int | Float of float | Str of string

let json_of_value = function
  | Int n -> Json.int n
  | Float f -> Json.Num f
  | Str s -> Json.Str s

(* The header members (run metadata first: commit, compiler, domain
   count, schema), then one row per line so committed diffs stay
   readable. *)
let to_string name (rows : (string * value) list list) =
  let member (k, v) = Json.render (Json.Str k) ^ ": " ^ Json.render v in
  let header =
    (("bench", Json.Str name) :: Runmeta.json_fields ())
    @ [ ("generated_unix", Json.Num (Unix.time ())) ]
  in
  let row r =
    Json.render (Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) r))
  in
  "{\n  "
  ^ String.concat ",\n  " (List.map member header)
  ^ ",\n  \"rows\": [\n    "
  ^ String.concat ",\n    " (List.map row rows)
  ^ "\n  ]\n}\n"

let write name rows =
  let file = Printf.sprintf "BENCH_%s.json" name in
  Out_channel.with_open_text file (fun oc ->
      output_string oc (to_string name rows));
  Printf.printf "[bench] wrote %s (%d rows)\n%!" file (List.length rows)
