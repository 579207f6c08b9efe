(** Bit-parallel truth tables.

    A truth table over [n] variables stores one bit per minterm in flat,
    unboxed 64-bit words.  Minterm [m] — the assignment where bit [i] of
    [m] is the value of variable [i] — lives in word [m / 64] at bit
    [m mod 64].  All operations re-normalize unused high bits, so
    structural equality coincides with functional equality.  An operation
    allocates one block, its result. *)

type t

val max_vars : int
(** Largest supported variable count (20: one million minterms). *)

val num_vars : t -> int
(** Number of variables of the table. *)

val num_bits : t -> int
(** Number of minterms, [2 ^ num_vars]. *)

(** {1 Construction} *)

val create : int -> t
(** [create n] is the constant-false table over [n] variables.
    @raise Invalid_argument when [n] is outside [0, max_vars]. *)

val const0 : int -> t
(** Constant false over [n] variables. *)

val const1 : int -> t
(** Constant true over [n] variables. *)

val nth_var : int -> int -> t
(** [nth_var n i] is the projection of variable [i] over [n] variables.
    @raise Invalid_argument when [i] is outside [0, n). *)

val copy : t -> t

val of_hex : int -> string -> t
(** [of_hex n s] parses a hex string (most significant nibble first, kitty
    convention).  @raise Invalid_argument on bad length or characters. *)

val of_int64 : int -> int64 -> t
(** [of_int64 n w] builds a table of up to 6 variables from the low bits of
    [w]. *)

(** {1 Bit access} *)

val get_bit : t -> int -> int
(** [get_bit f m] is the value (0 or 1) of [f] on minterm [m]. *)

val set_bit : t -> int -> unit
(** In-place; only intended for table construction. *)

val clear_bit : t -> int -> unit

(** {1 Comparison} *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Variable count first, then the words from word 0, each compared as a
    signed 64-bit integer. *)

val is_const0 : t -> bool
val is_const1 : t -> bool

val implies : t -> t -> bool
(** [implies a b] is [is_const0 (a &: ~:b)]: every minterm of [a] is one
    of [b].  Allocates nothing. *)

(** {2 Checks over complemented operands}

    Each flag complements its operand: [equal_c c a b] is
    [equal (if c then ~:a else a) b], and so on.  They compare word by
    word and allocate nothing. *)

val equal_c : bool -> t -> t -> bool

val implies_c : bool -> t -> bool -> t -> bool
(** [implies_c ca a cb b]: every minterm of [a] (complemented when [ca])
    is one of [b] (complemented when [cb]). *)

val and_implies_c : bool -> t -> bool -> t -> bool -> t -> bool
(** [and_implies_c ca a cb b cc c]: every minterm of [a &: b] is one of
    [c], each operand complemented by its flag. *)

val or_equal_c : bool -> t -> bool -> t -> t -> bool
(** [or_equal_c ca a cb b t]: [a |: b], operands complemented by their
    flags, equals [t]. *)

val and_equal_c : bool -> t -> bool -> t -> t -> bool
(** [and_equal_c ca a cb b t]: [a &: b] equals [t]. *)

val or_and_equal_c : bool -> t -> bool -> t -> bool -> t -> t -> bool
(** [or_and_equal_c ca a cb b cc c t]: [a |: (b &: c)] equals [t]. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by truth tables (variable count and words). *)

(** {1 Boolean operations} *)

val ( &: ) : t -> t -> t
val ( |: ) : t -> t -> t
val ( ^: ) : t -> t -> t
val ( ~: ) : t -> t
val and_c : bool -> t -> bool -> t -> t
(** [and_c ca a cb b] is [(if ca then ~:a else a) &: (if cb then ~:b else b)]
    in one word loop, allocating only the result. *)

val xnor : t -> t -> t
val nand : t -> t -> t
val nor : t -> t -> t

val ite : t -> t -> t -> t
(** [ite i t e]: multiplexer selecting [t] where [i] is true, [e]
    elsewhere. *)

val maj : t -> t -> t -> t
(** Three-input majority. *)

val count_ones : t -> int
(** Number of on-set minterms. *)

(** {1 Cofactors and variables} *)

val cofactor0 : t -> int -> t
(** Negative cofactor with respect to a variable; the result keeps the same
    variable count but no longer depends on it. *)

val cofactor1 : t -> int -> t
(** Positive cofactor. *)

val has_var : t -> int -> bool
(** Does the function depend on the variable?  Compares the two
    cofactors in place, allocating nothing; [false] for a variable at or
    above [num_vars]. *)

val support : t -> int list
(** Variables the function depends on, ascending. *)

val exists : t -> int -> t
(** Existential quantification: [cofactor0 f i |: cofactor1 f i]. *)

val flip : t -> int -> t
(** [flip f i] complements variable [i]: the result maps [x] to
    [f] with [x_i] inverted. *)

val swap_vars : t -> int -> int -> t
(** Exchange two variables, word by word.
    @raise Invalid_argument when either is outside [0, num_vars). *)

val permute : t -> int array -> t
(** [permute f perm] is the function [g] with
    [g(x_0, .., x_{n-1}) = f(x_{perm.(0)}, .., x_{perm.(n-1)})] — f's
    variable [i] reads position [perm.(i)]. *)

(** {1 Resizing and composition} *)

val extend : t -> int -> t
(** Add variables (the function does not depend on them). *)

val expand : t -> from:int array -> into:int array -> t
(** [expand f ~from ~into] re-expresses [f], a function of the variables
    named by the ascending ids [from], over the ascending superset [into]:
    variable [i] of [f] becomes variable [j] of the result where
    [into.(j) = from.(i)], and the result does not depend on the other
    variables.  Word-level (kitty's [extend_to] then one swap per
    variable); [f] itself when the two sets are equal.
    @raise Invalid_argument when [num_vars f <> Array.length from] or
    [into] is shorter than [from]. *)

val shrink : t -> int -> t
(** Drop the top variables; they must not be in the support. *)

val apply : t -> t array -> t
(** [apply f args] composes: the result maps [x] to
    [f(args.(0)(x), .., args.(n-1)(x))].  All [args] must range over the
    same variable count. *)

(** {1 Printing} *)

val to_hex : t -> string
val to_int64 : t -> int64
(** Raw low word; only for tables of at most 6 variables. *)

val pp : Format.formatter -> t -> unit
