(** Irredundant sum-of-products covers via the Minato–Morreale algorithm. *)

val of_tt : Tt.t -> Cube.t list
(** ISOP of a completely specified function: every cube in the result is
    necessary. *)
