(* Machine-readable benchmark results: the one owner of the BENCH format,
   writer and reader.

   Every bench subcommand emits a [BENCH_<name>.json] next to the working
   directory, so results carry a trajectory across commits (see
   EXPERIMENTS.md).  A result file holds one row per (benchmark, stage)
   pair; fields are flat scalars.  [report --bench] renders one as a
   per-benchmark table ([pp]).

   Living in the obs library (rather than next to the bench driver) makes
   the schema-v2 runmeta header a property of the writer itself: every
   subcommand that goes through [write] — sat and cache included — is
   stamped identically, so a reader can tell which commit, compiler and
   cost objective produced a file. *)

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

(* Reading: the rows back out of a BENCH file.  Unknown fields are
   skipped so newer producers stay readable by older readers. *)

type row = {
  benchmark : string;
  stage : string;
  fields : (string * float) list;  (* numeric fields only *)
}

let rows (j : Json.t) : row list =
  match Option.bind (Json.member "rows" j) Json.to_list with
  | None -> []
  | Some rows ->
    List.filter_map
      (fun row ->
        match (Json.str_member "benchmark" row, Json.str_member "stage" row) with
        | Some benchmark, Some stage ->
          let fields =
            match row with
            | Json.Obj kvs ->
              List.filter_map
                (fun (k, v) ->
                  if k = "benchmark" || k = "stage" then None
                  else Option.map (fun f -> (k, f)) (Json.to_num v))
                kvs
            | _ -> []
          in
          Some { benchmark; stage; fields }
        | _ -> None)
      rows

let pp fmt (j : Json.t) =
  let rows = rows j in
  let name = Option.value ~default:"?" (Json.str_member "bench" j) in
  Format.fprintf fmt "bench %s (%d rows)@." name (List.length rows);
  (match Json.member "cache" j with
  | Some (Json.Obj kvs) ->
    Format.fprintf fmt "cache: %s@."
      (String.concat " "
         (List.filter_map
            (fun (k, v) ->
              Option.map (fun n -> Printf.sprintf "%s=%.0f" k n) (Json.to_num v))
            kvs))
  | _ -> ());
  Format.fprintf fmt "%-14s %-14s  %s@." "benchmark" "stage" "fields";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-14s %-14s  %s@." r.benchmark r.stage
        (String.concat " "
           (List.map
              (fun (k, v) ->
                if Float.is_integer v && Float.abs v < 1e15 then
                  Printf.sprintf "%s=%.0f" k v
                else Printf.sprintf "%s=%.3f" k v)
              r.fields)))
    rows
