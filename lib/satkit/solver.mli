(** A CDCL SAT solver in the MiniSat/Glucose tradition.

    On top of classic CDCL (two-watched-literal propagation with blocker
    literals, first-UIP clause learning, VSIDS branching with phase saving,
    incremental solving under assumptions, per-call conflict budgets) the
    kernel implements LBD-based tiered clause deletion (core/tier2/local),
    glucose-style EMA restarts with stabilization phases, learnt-clause
    minimization by self-subsuming resolution, and periodic inprocessing
    (level-0 simplification, learnt-clause subsumption, vivification).

    There is one kernel: every feature above is always on, and a
    {!config} sets only how often the clause database is reduced and
    inprocessing runs.

    Used by SAT-based exact synthesis (paper §2.2.2), combinational
    equivalence checking and SAT sweeping. *)

type t

type result = Sat | Unsat | Unknown

(** {1 Configuration} *)

type config = {
  reduce_interval : int;
      (** conflicts between learnt-clause-database reductions *)
  inprocess_interval : int;  (** conflicts between inprocessing rounds *)
}

val default_config : config
(** The cadence every caller in the library uses: reduce every 2000
    conflicts, inprocess every 6000. *)

(** {1 Solving} *)

val create : ?config:config -> unit -> t

val new_var : t -> int
(** Allocate the next variable; variables are dense integers from 0. *)

val ensure_var : t -> int -> unit
(** Make sure variables [0 .. v] exist. *)

val num_vars : t -> int
val num_clauses : t -> int
val num_conflicts : t -> int

val add_clause : t -> Lit.t list -> unit
(** Add a clause; performs level-0 simplification.  Adding the empty clause
    (or a clause that simplifies away entirely) makes the instance
    unsatisfiable. *)

val solve :
  ?conflict_budget:int ->
  ?assumptions:Lit.t list ->
  t ->
  result
(** Solve the current formula.

    - [assumptions] are temporarily asserted literals; [Unsat] then means
      "unsatisfiable under the assumptions".
    - [conflict_budget] > 0 bounds the search; exceeding it yields
      [Unknown] (never a wrong answer).

    After [Sat], the model is available through {!model_value} until the
    next [solve] or [add_clause]. *)

val model_value : t -> int -> bool
(** Value of a variable in the model; meaningful only right after a [Sat]
    answer. *)

(** {1 Telemetry} *)

val stats : t -> (string * int) list
(** The kernel's internal counters as label/value pairs, so callers
    (CEC, fraig, exact synthesis) can publish them into the
    observability layer without satkit depending on it: sizes (vars,
    clauses, learnt-clause tiers), the monotone search counters
    (conflicts, decisions, propagations, restarts, reductions,
    minimization and inprocessing totals) and the learn-time LBD
    histogram summarized into glue/mid/high ranges.  Cheap: one
    learnt-DB scan. *)
