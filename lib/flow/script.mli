(** ABC-style optimization scripts: sequences like
    ["bz; rs -c 6; rw; rs -c 6 -d 2; rf; ..."].  One script drives every
    representation (paper §3.1). *)

type command =
  | Balance                                          (** [b] / [bz] *)
  | Rewrite of { zero_gain : bool }                  (** [rw] / [rwz] *)
  | Refactor of { zero_gain : bool }                 (** [rf] / [rfz] *)
  | Resub of { cut_size : int; max_inserted : int }  (** [rs -c C -d D] *)
  | Fraig                                            (** SAT sweeping *)

exception Parse_error of string

val parse_command : string -> command
(** Raises [Parse_error] on an unknown command, option or number. *)

val parse : string -> command list
val to_string : command -> string

val compress2rs : string
(** The paper's generic resynthesis flow (§3.1), modelled on ABC's
    compress2rs. *)

val compress_lite : string
(** A shorter flow for tests and quick experiments. *)
