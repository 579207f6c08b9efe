(* ABC-style optimization scripts: a tiny command language whose sentences
   are sequences like "bz; rs -c 6; rw; rs -c 6 -d 2; rf; ...".  The same
   script drives every representation (paper §3.1). *)

type command =
  | Balance
  | Rewrite of { zero_gain : bool }
  | Refactor of { zero_gain : bool }
  | Resub of { cut_size : int; max_inserted : int }
  | Fraig

exception Parse_error of string

let parse_command (s : string) : command =
  let tokens =
    String.split_on_char ' ' (String.trim s) |> List.filter (fun t -> t <> "")
  in
  match tokens with
  | [] -> raise (Parse_error "empty command")
  | ("b" | "bz") :: [] -> Balance
  | "fraig" :: [] -> Fraig
  | "rw" :: [] -> Rewrite { zero_gain = false }
  | "rwz" :: [] -> Rewrite { zero_gain = true }
  | "rf" :: [] -> Refactor { zero_gain = false }
  | "rfz" :: [] -> Refactor { zero_gain = true }
  | "rs" :: opts ->
    let int flag v =
      match int_of_string_opt v with
      | Some n -> n
      | None ->
        raise (Parse_error (Printf.sprintf "bad rs %s value: %s" flag v))
    in
    let rec go cut_size max_inserted = function
      | [] -> Resub { cut_size; max_inserted }
      | "-c" :: v :: rest -> go (int "-c" v) max_inserted rest
      | "-d" :: v :: rest -> go cut_size (int "-d" v) rest
      | tok :: _ -> raise (Parse_error ("bad rs option: " ^ tok))
    in
    go 8 1 opts
  | tok :: _ -> raise (Parse_error ("unknown command: " ^ tok))

let parse (script : string) : command list =
  String.split_on_char ';' script
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")
  |> List.map parse_command

(* The paper's generic resynthesis flow (§3.1), modelled on ABC's
   compress2rs. *)
let compress2rs =
  "bz; rs -c 6; rw; rs -c 6 -d 2; rf; rs -c 8; bz; rs -c 8 -d 2; rw; \
   rs -c 10; rwz; rs -c 10 -d 2; bz; rs -c 12; rfz; rs -c 12 -d 2; rwz; bz"

(* A shorter flow for tests and quick experiments. *)
let compress_lite = "bz; rs -c 8; rw; rf; rs -c 8 -d 2; rwz; bz"

let to_string = function
  | Balance -> "bz"
  | Rewrite { zero_gain } -> if zero_gain then "rwz" else "rw"
  | Refactor { zero_gain } -> if zero_gain then "rfz" else "rf"
  | Resub { cut_size; max_inserted } ->
    if max_inserted = 1 then Printf.sprintf "rs -c %d" cut_size
    else Printf.sprintf "rs -c %d -d %d" cut_size max_inserted
  | Fraig -> "fraig"
