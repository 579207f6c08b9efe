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

(** {1 Telemetry}

    The kernel's internal counters, exposed as a plain record so callers
    (CEC, fraig, exact synthesis) can publish them into the observability
    layer without satkit depending on it.  Take a snapshot before and
    after a solve and {!diff_snapshot} the two to attribute the work. *)

type snapshot = {
  s_vars : int;
  s_clauses : int;
  s_learnts : int;          (** learnt clauses currently in the database *)
  s_learnts_core : int;     (** tier: lbd <= 2, kept forever *)
  s_learnts_tier2 : int;    (** tier: lbd <= 6, demoted when unused *)
  s_learnts_local : int;    (** tier: everything else *)
  s_learned_total : int;    (** learnt clauses ever recorded *)
  s_conflicts : int;
  s_decisions : int;
  s_propagations : int;
  s_restarts : int;
  s_reduces : int;          (** learnt-DB reduction rounds *)
  s_inprocess_rounds : int;
  s_minimized_lits : int;   (** literals removed by learnt minimization *)
  s_subsumed : int;
  s_strengthened : int;
  s_vivified : int;
  s_vivified_lits : int;
  s_lbd : int array;
      (** learn-time LBD histogram: [s_lbd.(i)] clauses were learnt with
          LBD [i]; the last bucket is open-ended.  Unit clauses land in
          bucket 0/1. *)
}

val snapshot : t -> snapshot
(** A point-in-time copy of every counter; cheap (one learnt-DB scan). *)

val stats_of_snapshot : snapshot -> (string * int) list
(** The snapshot as label/value pairs (histogram summarized into
    glue/mid/high ranges), for trace counters. *)

val diff_snapshot : snapshot -> snapshot -> snapshot
(** [diff_snapshot before after]: per-field [after - before] for the
    monotone counters; sizes (vars, clause tiers) are taken from
    [after]. *)

val stats : t -> (string * int) list
(** [stats_of_snapshot (snapshot t)] — solver counters (conflicts,
    propagations, restarts, clause tiers, minimization/inprocessing
    totals, LBD ranges) as label/value pairs. *)

val pp_stats : Format.formatter -> t -> unit
