(** NPN canonization.

    Two functions are NPN-equivalent when one can be obtained from the other
    by Negating inputs, Permuting inputs and/or Negating the output.  The
    canonical representative of a class is the lexicographically smallest
    truth table reachable by such transformations.

    NPN classes are the index space of the exact-synthesis database: all
    65536 4-variable functions collapse into 222 classes. *)

type transform = {
  perm : int array;  (** canonical form reads f's variable i at [perm.(i)] *)
  flips : int;       (** bit i set: f's variable i is complemented *)
  out_flip : bool;
}
(** A transform [tr] maps [f] to its canonical form [g]:
    [g(x_0, .., x_{n-1}) = out_flip XOR f(x_{perm.(0)} XOR flip_0, ..)]. *)

val identity : int -> transform

val apply : transform -> Tt.t -> Tt.t
(** [apply tr f] realizes the transform ([= g] when [(g, tr) = canonize f]). *)

val apply_inverse : transform -> Tt.t -> Tt.t
(** Undo a transform: [apply_inverse tr (apply tr f) = f]. *)

val db_input_assignment : transform -> (int * bool) array * bool
(** Mapping used to instantiate a database structure stored for the
    canonical form on concrete cut leaves: database input [j] must be
    driven by leaf [fst a.(j)], complemented when [snd a.(j)]; the database
    output is complemented when the second component is [true]. *)

val canonize : Tt.t -> Tt.t * transform
(** Canonical representative and the transform reaching it.  Exhaustive
    (and exact) up to 5 variables — memoized per function up to 4
    variables, the widths of cut rewriting — and a deterministic greedy
    sifting heuristic beyond.  A memoized result is shared between calls:
    do not mutate it. *)

val canonize_exhaustive : Tt.t -> Tt.t * transform
(** Exhaustive search over all [2^n * n! * 2] transforms (n <= 5). *)

val canonize_sifting : Tt.t -> Tt.t * transform
(** The greedy heuristic, exposed for testing. *)

val permutations : int -> int array list
(** All permutations of [0 .. n-1] (helper, exposed for tests). *)
