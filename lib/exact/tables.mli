(** Precomputed 4-input NPN tables: option (i) of paper §2.3.2.

    A table is a {!Store} file holding the synthesis result of every NPN
    class of at most {!max_vars} variables (1 + 2 + 4 + 14 + 222 = 243
    classes) under one preset {!Synth.config}.  [bench/main.exe tables]
    writes them from the same [Synth.synthesize] call a database miss
    makes, budget failures included, so a database seeded from a table
    makes the rewrite decisions one that synthesizes on the fly would.
    The files live in [lib/exact/tables/] and are compiled into the
    library. *)

val max_vars : int

val classes : unit -> Kitty.Tt.t list
(** Canonical representatives ({!Kitty.Npn.canonize}) of every NPN class
    of [0 .. max_vars] variables, by variable count, then by truth table.
    Canonizes every such function, so it takes seconds. *)

val files : (string * string) list
(** The shipped tables as [(name, store bytes)]. *)

val find : Synth.config -> Store.entry list option
(** The entries of the shipped table whose fingerprint is
    [Store.fingerprint config], or [None] when no table is shipped for
    [config].  Each table is decoded and checked at most once per process;
    safe to call from several domains. *)
