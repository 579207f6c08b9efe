(* A CDCL SAT solver in the MiniSat/Glucose tradition.

   The kernel implements the modern feature set on top of classic CDCL
   (two-watched-literal propagation, first-UIP learning, VSIDS with phase
   saving):

   - blocker literals: each watcher caches one other literal of its clause;
     when the blocker is true the clause is skipped without dereferencing
     its literal array, which is where propagation spends most of its time.
   - LBD (literal block distance) on learnt clauses, driving a three-tier
     clause database: [core] (lbd <= 2, kept forever), [tier2] (lbd <= 6,
     demoted when unused between reductions) and [local] (everything else,
     worse half deleted at each reduction).
   - glucose-style EMA restarts (restart when the short-term LBD average
     exceeds the long-term one, blocked while the trail is unusually deep),
     alternating with Luby-paced stable phases of doubling length so phase
     saving can settle.
   - learnt-clause minimization by self-subsuming resolution over the
     implication graph (recursive, depth-capped).
   - inprocessing between restarts: level-0 simplification, learnt-clause
     subsumption / self-subsuming strengthening, and clause vivification
     under a propagation budget.

   A [config] sets only the cadence of clause-DB reduction and
   inprocessing; every feature above is always on.

   The solver is used by SAT-based exact synthesis (paper §2.2.2), by
   combinational equivalence checking and by SAT sweeping. *)

type result = Sat | Unsat | Unknown

(* -- configuration -- *)

type config = {
  reduce_interval : int;         (* conflicts between clause-DB reductions *)
  inprocess_interval : int;      (* conflicts between inprocessing rounds *)
}

let default_config = { reduce_interval = 2000; inprocess_interval = 6000 }

(* VSIDS activity decay factors *)
let var_decay_factor = 0.95
let clause_decay_factor = 0.999

(* -- clauses -- *)

let tier_core = 0
let tier_two = 1
let tier_local = 2

type clause = {
  mutable lits : int array;
  mutable activity : float;
  mutable lbd : int;
  learnt : bool;
  mutable tier : int;        (* tier_core | tier_two | tier_local *)
  mutable used : int;        (* tier2 usage credit between reductions *)
  mutable dead : bool;       (* marked for removal; purged at rebuild *)
}

let dummy_clause =
  { lits = [||]; activity = 0.0; lbd = 0; learnt = false; tier = 0; used = 0;
    dead = false }

(* growable clause vector *)
type cvec = { mutable cdata : clause array; mutable cn : int }

let cvec_make () = { cdata = Array.make 16 dummy_clause; cn = 0 }

let cvec_push v c =
  if v.cn >= Array.length v.cdata then begin
    let bigger = Array.make (2 * Array.length v.cdata) dummy_clause in
    Array.blit v.cdata 0 bigger 0 v.cn;
    v.cdata <- bigger
  end;
  v.cdata.(v.cn) <- c;
  v.cn <- v.cn + 1

let cvec_iter f v =
  for i = 0 to v.cn - 1 do
    f v.cdata.(i)
  done

let cvec_compact v =
  let j = ref 0 in
  for i = 0 to v.cn - 1 do
    let c = v.cdata.(i) in
    if not c.dead then begin
      v.cdata.(!j) <- c;
      incr j
    end
  done;
  for i = !j to v.cn - 1 do
    v.cdata.(i) <- dummy_clause
  done;
  v.cn <- !j

(* watcher lists: parallel clause/blocker arrays, indexed by literal *)
type wlist = {
  mutable wcl : clause array;
  mutable wbl : int array;
  mutable wn : int;
}

let wlist_make () = { wcl = [||]; wbl = [||]; wn = 0 }

let wlist_push w c b =
  if w.wn >= Array.length w.wcl then begin
    let ncap = max 4 (2 * Array.length w.wcl) in
    let ncl = Array.make ncap dummy_clause and nbl = Array.make ncap 0 in
    Array.blit w.wcl 0 ncl 0 w.wn;
    Array.blit w.wbl 0 nbl 0 w.wn;
    w.wcl <- ncl;
    w.wbl <- nbl
  end;
  w.wcl.(w.wn) <- c;
  w.wbl.(w.wn) <- b;
  w.wn <- w.wn + 1

type t = {
  config : config;
  mutable num_vars : int;
  clauses : cvec;                        (* original problem clauses *)
  learnts : cvec;
  mutable watches : wlist array;         (* indexed by literal *)
  mutable assign : int array;            (* var -> -1 | 0 (false) | 1 (true) *)
  mutable level : int array;
  mutable reason : clause option array;
  mutable trail : int array;             (* literal stack *)
  mutable trail_size : int;
  mutable trail_lim : int array;         (* decision-level boundaries *)
  mutable trail_lim_size : int;
  mutable qhead : int;
  mutable activity : float array;        (* VSIDS per variable *)
  mutable polarity : bool array;         (* saved phase: last assigned value *)
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable seen : bool array;
  mutable ok : bool;                     (* false once trivially UNSAT *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  (* order heap for VSIDS *)
  mutable heap : int array;              (* heap of variables *)
  mutable heap_size : int;
  mutable heap_pos : int array;          (* var -> index in heap, or -1 *)
  (* LBD computation: per-decision-level stamps *)
  mutable lbd_stamp : int array;
  mutable lbd_counter : int;
  (* per-literal stamps for subsumption *)
  mutable lit_stamp : int array;
  mutable lit_counter : int;
  (* restart state (EMA policy) *)
  mutable ema_fast : float;
  mutable ema_slow : float;
  mutable trail_ema : float;
  mutable stab_stable : bool;            (* currently in a stable phase? *)
  mutable stab_len : int;
  mutable stab_next : int;               (* conflict count of next switch *)
  mutable stable_idx : int;              (* Luby index inside stable phases *)
  (* clause-DB / inprocessing cadence *)
  mutable reduce_limit : int;
  mutable last_reduce : int;
  mutable last_inprocess : int;
  mutable simp_head : int;               (* trail size at last level-0 simplify *)
  (* scratch for minimization: vars temporarily marked seen *)
  mutable redundant_marked : int list;
  (* statistics *)
  mutable reduces : int;
  mutable inprocess_rounds : int;
  mutable minimized_lits : int;
  mutable subsumed : int;
  mutable strengthened : int;
  mutable vivified : int;
  mutable vivified_lits : int;
  mutable learned_total : int;       (* learnt clauses ever recorded *)
  lbd_hist : int array;              (* learn-time LBD, bucket = min lbd 15 *)
}

let create ?(config = default_config) () =
  {
    config;
    num_vars = 0;
    clauses = cvec_make ();
    learnts = cvec_make ();
    watches = Array.init 16 (fun _ -> wlist_make ());
    assign = Array.make 8 (-1);
    level = Array.make 8 0;
    reason = Array.make 8 None;
    trail = Array.make 8 0;
    trail_size = 0;
    trail_lim = Array.make 8 0;
    trail_lim_size = 0;
    qhead = 0;
    activity = Array.make 8 0.0;
    polarity = Array.make 8 false;
    var_inc = 1.0;
    cla_inc = 1.0;
    seen = Array.make 8 false;
    ok = true;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    heap = Array.make 8 0;
    heap_size = 0;
    heap_pos = Array.make 8 (-1);
    lbd_stamp = Array.make 9 0;
    lbd_counter = 0;
    lit_stamp = Array.make 16 0;
    lit_counter = 0;
    ema_fast = 0.0;
    ema_slow = 0.0;
    trail_ema = 0.0;
    stab_stable = false;
    stab_len = 1000;
    stab_next = 1000;
    stable_idx = 0;
    reduce_limit = config.reduce_interval;
    last_reduce = 0;
    last_inprocess = 0;
    simp_head = 0;
    redundant_marked = [];
    reduces = 0;
    inprocess_rounds = 0;
    minimized_lits = 0;
    subsumed = 0;
    strengthened = 0;
    vivified = 0;
    vivified_lits = 0;
    learned_total = 0;
    lbd_hist = Array.make 16 0;
  }

let num_vars t = t.num_vars
let num_clauses t = t.clauses.cn
let num_conflicts t = t.conflicts

(* -- resizable arrays -- *)

let ensure_var_capacity t v =
  let cap = Array.length t.assign in
  if v >= cap then begin
    let ncap = max (2 * cap) (v + 1) in
    let grow a def =
      let b = Array.make ncap def in
      Array.blit a 0 b 0 cap;
      b
    in
    t.assign <- grow t.assign (-1);
    t.level <- grow t.level 0;
    t.reason <- grow t.reason None;
    t.activity <- grow t.activity 0.0;
    t.polarity <- grow t.polarity false;
    t.seen <- grow t.seen false;
    t.heap_pos <- grow t.heap_pos (-1);
    let nw = Array.init (2 * ncap) (fun _ -> wlist_make ()) in
    Array.blit t.watches 0 nw 0 (Array.length t.watches);
    t.watches <- nw;
    let nls = Array.make (ncap + 1) 0 in
    Array.blit t.lbd_stamp 0 nls 0 (Array.length t.lbd_stamp);
    t.lbd_stamp <- nls;
    let nlit = Array.make (2 * ncap) 0 in
    Array.blit t.lit_stamp 0 nlit 0 (Array.length t.lit_stamp);
    t.lit_stamp <- nlit;
    let ntrail = Array.make ncap 0 in
    Array.blit t.trail 0 ntrail 0 t.trail_size;
    t.trail <- ntrail;
    let nlim = Array.make ncap 0 in
    Array.blit t.trail_lim 0 nlim 0 t.trail_lim_size;
    t.trail_lim <- nlim
  end

(* -- VSIDS order heap (max-heap on activity) -- *)

let heap_lt t a b = t.activity.(a) > t.activity.(b)

let heap_swap t i j =
  let a = t.heap.(i) and b = t.heap.(j) in
  t.heap.(i) <- b;
  t.heap.(j) <- a;
  t.heap_pos.(a) <- j;
  t.heap_pos.(b) <- i

let rec heap_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_lt t t.heap.(i) t.heap.(p) then begin
      heap_swap t i p;
      heap_up t p
    end
  end

let rec heap_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.heap_size && heap_lt t t.heap.(l) t.heap.(!best) then best := l;
  if r < t.heap_size && heap_lt t t.heap.(r) t.heap.(!best) then best := r;
  if !best <> i then begin
    heap_swap t i !best;
    heap_down t !best
  end

let heap_insert t v =
  if t.heap_pos.(v) < 0 then begin
    if t.heap_size >= Array.length t.heap then begin
      let bigger = Array.make (2 * Array.length t.heap) 0 in
      Array.blit t.heap 0 bigger 0 t.heap_size;
      t.heap <- bigger
    end;
    t.heap.(t.heap_size) <- v;
    t.heap_pos.(v) <- t.heap_size;
    t.heap_size <- t.heap_size + 1;
    heap_up t t.heap_pos.(v)
  end

let heap_pop t =
  let v = t.heap.(0) in
  t.heap_size <- t.heap_size - 1;
  if t.heap_size > 0 then begin
    t.heap.(0) <- t.heap.(t.heap_size);
    t.heap_pos.(t.heap.(0)) <- 0
  end;
  t.heap_pos.(v) <- -1;
  if t.heap_size > 0 then heap_down t 0;
  v

let heap_decrease t v = if t.heap_pos.(v) >= 0 then heap_up t t.heap_pos.(v)

(* -- variables -- *)

let new_var t =
  let v = t.num_vars in
  t.num_vars <- v + 1;
  ensure_var_capacity t v;
  t.assign.(v) <- -1;
  heap_insert t v;
  v

(* Ensure variables up to [v] exist. *)
let ensure_var t v = while t.num_vars <= v do ignore (new_var t) done

let value_lit t l =
  let a = t.assign.(Lit.var l) in
  if a < 0 then -1 else a lxor (l land 1)

let decision_level t = t.trail_lim_size

(* -- activity -- *)

let var_bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for i = 0 to t.num_vars - 1 do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  heap_decrease t v

let var_decay t = t.var_inc <- t.var_inc /. var_decay_factor

let cla_bump t (c : clause) =
  c.activity <- c.activity +. t.cla_inc;
  if c.activity > 1e20 then begin
    cvec_iter (fun (c : clause) -> c.activity <- c.activity *. 1e-20) t.learnts;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let cla_decay t = t.cla_inc <- t.cla_inc /. clause_decay_factor

(* -- LBD: number of distinct decision levels among a clause's literals -- *)

let compute_lbd t lits len =
  t.lbd_counter <- t.lbd_counter + 1;
  let stamp = t.lbd_counter in
  let count = ref 0 in
  for i = 0 to len - 1 do
    let lv = t.level.(Lit.var lits.(i)) in
    if lv > 0 && t.lbd_stamp.(lv) <> stamp then begin
      t.lbd_stamp.(lv) <- stamp;
      incr count
    end
  done;
  !count

(* -- assignment -- *)

let enqueue t l reason =
  let v = Lit.var l in
  t.assign.(v) <- 1 lxor (l land 1);
  t.polarity.(v) <- t.assign.(v) = 1;
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  t.trail.(t.trail_size) <- l;
  t.trail_size <- t.trail_size + 1

let new_decision_level t =
  t.trail_lim.(t.trail_lim_size) <- t.trail_size;
  t.trail_lim_size <- t.trail_lim_size + 1

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = t.trail_lim.(lvl) in
    for i = t.trail_size - 1 downto bound do
      let v = Lit.var t.trail.(i) in
      t.assign.(v) <- -1;
      t.reason.(v) <- None;
      heap_insert t v
    done;
    t.trail_size <- bound;
    t.qhead <- bound;
    t.trail_lim_size <- lvl
  end

(* -- watched literals -- *)

let attach_clause t c =
  wlist_push t.watches.(Lit.neg c.lits.(0)) c c.lits.(1);
  wlist_push t.watches.(Lit.neg c.lits.(1)) c c.lits.(0)

let wlist_remove w c =
  let n = w.wn in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if w.wcl.(i) != c then begin
      w.wcl.(!j) <- w.wcl.(i);
      w.wbl.(!j) <- w.wbl.(i);
      incr j
    end
  done;
  w.wn <- !j

let detach_clause t c =
  wlist_remove t.watches.(Lit.neg c.lits.(0)) c;
  wlist_remove t.watches.(Lit.neg c.lits.(1)) c

(* Throw away every watcher and re-attach all live clauses.  Used after bulk
   clause-DB surgery (reduction, inprocessing); resets blockers too. *)
let rebuild_watches t =
  for l = 0 to (2 * t.num_vars) - 1 do
    t.watches.(l).wn <- 0
  done;
  cvec_iter (fun c -> attach_clause t c) t.clauses;
  cvec_iter (fun c -> attach_clause t c) t.learnts

(* Propagate all enqueued facts; returns the conflicting clause, if any.
   Watchers carry a blocker literal: when it is already true the clause is
   satisfied and is skipped without touching its literal array. *)
let propagate t =
  let conflict = ref None in
  while !conflict == None && t.qhead < t.trail_size do
    let p = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.propagations <- t.propagations + 1;
    let false_lit = Lit.neg p in
    let w = t.watches.(p) in
    let n = w.wn in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let c = w.wcl.(!i) in
      let blocker = w.wbl.(!i) in
      if value_lit t blocker = 1 then begin
        (* blocker satisfied: keep the watcher untouched *)
        w.wcl.(!j) <- c;
        w.wbl.(!j) <- blocker;
        incr j;
        incr i
      end
      else begin
        let lits = c.lits in
        (* ensure the false literal (= neg p) is at position 1 *)
        if lits.(0) = false_lit then begin
          lits.(0) <- lits.(1);
          lits.(1) <- false_lit
        end;
        let first = lits.(0) in
        if first <> blocker && value_lit t first = 1 then begin
          (* satisfied by the other watch: make it the new blocker *)
          w.wcl.(!j) <- c;
          w.wbl.(!j) <- first;
          incr j;
          incr i
        end
        else begin
          (* look for a new literal to watch *)
          let len = Array.length lits in
          let k = ref 2 in
          while !k < len && value_lit t lits.(!k) = 0 do
            incr k
          done;
          if !k < len then begin
            lits.(1) <- lits.(!k);
            lits.(!k) <- false_lit;
            wlist_push t.watches.(Lit.neg lits.(1)) c first;
            incr i
          end
          else begin
            (* unit or conflicting: keep the watch *)
            w.wcl.(!j) <- c;
            w.wbl.(!j) <- first;
            incr j;
            incr i;
            if value_lit t first = 0 then begin
              (* conflict: keep the remaining watchers *)
              while !i < n do
                w.wcl.(!j) <- w.wcl.(!i);
                w.wbl.(!j) <- w.wbl.(!i);
                incr j;
                incr i
              done;
              conflict := Some c;
              t.qhead <- t.trail_size
            end
            else enqueue t first (Some c)
          end
        end
      end
    done;
    w.wn <- !j
  done;
  !conflict

(* -- conflict analysis (first UIP) -- *)

(* Is the false literal with variable [v] implied by literals already in the
   learnt clause (marked seen) and level-0 facts?  Walks the implication
   graph through reasons; successes are memoized by marking the variable
   seen (recorded in [redundant_marked] for cleanup).  The reason clause of
   an assigned variable keeps its implied literal at position 0 while it is
   locked, so antecedents start at index 1. *)
let rec lit_redundant t v depth =
  match t.reason.(v) with
  | None -> false
  | Some c ->
    if depth > 96 then false
    else begin
      let lits = c.lits in
      let ok = ref true in
      let i = ref 1 in
      while !ok && !i < Array.length lits do
        let vq = Lit.var lits.(!i) in
        if t.level.(vq) = 0 || t.seen.(vq) then ()
        else if lit_redundant t vq (depth + 1) then begin
          t.seen.(vq) <- true;
          t.redundant_marked <- vq :: t.redundant_marked
        end
        else ok := false;
        incr i
      done;
      !ok
    end

(* Returns (learnt literals with the asserting literal first, backtrack
   level, lbd of the learnt clause). *)
let analyze t confl =
  let learnt = ref [] in
  let path_count = ref 0 in
  let p = ref (-1) in
  let index = ref (t.trail_size - 1) in
  let confl = ref (Some confl) in
  let continue_loop = ref true in
  t.redundant_marked <- [];
  while !continue_loop do
    (match !confl with
    | None -> assert false
    | Some c ->
      if c.learnt then begin
        cla_bump t c;
        (* dynamic LBD: promote clauses that keep proving useful *)
        let nl = compute_lbd t c.lits (Array.length c.lits) in
        if nl < c.lbd then begin
          c.lbd <- nl;
          if nl <= 2 then c.tier <- tier_core
          else if nl <= 6 && c.tier = tier_local then c.tier <- tier_two
        end;
        if c.tier = tier_two then c.used <- 2
      end;
      let start = if !p < 0 then 0 else 1 in
      for j = start to Array.length c.lits - 1 do
        let q = c.lits.(j) in
        let v = Lit.var q in
        if (not t.seen.(v)) && t.level.(v) > 0 then begin
          var_bump t v;
          t.seen.(v) <- true;
          if t.level.(v) >= decision_level t then incr path_count
          else learnt := q :: !learnt
        end
      done);
    (* select next literal to look at *)
    let rec next_seen i =
      if t.seen.(Lit.var t.trail.(i)) then i else next_seen (i - 1)
    in
    index := next_seen !index;
    p := t.trail.(!index);
    index := !index - 1;
    confl := t.reason.(Lit.var !p);
    t.seen.(Lit.var !p) <- false;
    decr path_count;
    if !path_count <= 0 then continue_loop := false
  done;
  let collected = !learnt in
  (* self-subsuming minimization: drop literals whose falsity is already
     implied by the remaining clause *)
  let kept =
    List.filter
      (fun q ->
        let keep = not (lit_redundant t (Lit.var q) 0) in
        if not keep then t.minimized_lits <- t.minimized_lits + 1;
        keep)
      collected
  in
  let learnt_lits = Array.of_list (Lit.neg !p :: kept) in
  (* clear seen marks: collected literals (kept or dropped) plus any interior
     variables marked during redundancy checks *)
  List.iter (fun q -> t.seen.(Lit.var q) <- false) collected;
  List.iter (fun v -> t.seen.(v) <- false) t.redundant_marked;
  t.redundant_marked <- [];
  (* backtrack level must be recomputed after minimization *)
  let btlevel = ref 0 in
  for i = 1 to Array.length learnt_lits - 1 do
    let lv = t.level.(Lit.var learnt_lits.(i)) in
    if lv > !btlevel then btlevel := lv
  done;
  let lbd = compute_lbd t learnt_lits (Array.length learnt_lits) in
  (learnt_lits, !btlevel, lbd)

(* -- clause management -- *)

exception Trivially_sat

(* Simplify a raw clause at level 0: drop false/duplicate literals; raises
   [Trivially_sat] when the clause contains a true literal or [l, -l]. *)
let simplify_clause t lits =
  let tbl = Hashtbl.create (List.length lits) in
  let out = ref [] in
  List.iter
    (fun l ->
      ensure_var t (Lit.var l);
      if value_lit t l = 1 then raise Trivially_sat
      else if value_lit t l = 0 && t.level.(Lit.var l) = 0 then ()
      else if Hashtbl.mem tbl (Lit.neg l) then raise Trivially_sat
      else if not (Hashtbl.mem tbl l) then begin
        Hashtbl.add tbl l ();
        out := l :: !out
      end)
    lits;
  List.rev !out

let add_clause t lits =
  if t.ok then begin
    cancel_until t 0;
    match simplify_clause t lits with
    | exception Trivially_sat -> ()
    | [] -> t.ok <- false
    | [ l ] ->
      enqueue t l None;
      if propagate t <> None then t.ok <- false
    | lits ->
      let c =
        { lits = Array.of_list lits; activity = 0.0; lbd = 0; learnt = false;
          tier = tier_core; used = 0; dead = false }
      in
      cvec_push t.clauses c;
      attach_clause t c
  end

let locked t c =
  Array.length c.lits > 0
  &&
  match t.reason.(Lit.var c.lits.(0)) with
  | Some r -> r == c && value_lit t c.lits.(0) = 1
  | None -> false

(* Tiered reduction: core clauses are kept forever, tier2 clauses are
   demoted to local when unused since the previous reduction, and the worse
   half of the local tier (high lbd, then low activity) is deleted. *)
let reduce_db t =
  t.reduces <- t.reduces + 1;
  cvec_iter
    (fun c ->
      if c.tier = tier_two && not (locked t c) then begin
        c.used <- c.used - 1;
        if c.used <= 0 then c.tier <- tier_local
      end)
    t.learnts;
  let locals = ref [] in
  let nlocals = ref 0 in
  cvec_iter
    (fun c ->
      if c.tier = tier_local && (not c.dead) && not (locked t c) then begin
        locals := c :: !locals;
        incr nlocals
      end)
    t.learnts;
  let arr = Array.of_list !locals in
  Array.sort
    (fun (a : clause) (b : clause) ->
      if a.lbd <> b.lbd then compare b.lbd a.lbd
      else compare a.activity b.activity)
    arr;
  for i = 0 to (!nlocals / 2) - 1 do
    arr.(i).dead <- true
  done;
  cvec_compact t.learnts;
  rebuild_watches t

(* -- level-0 simplification -- *)

(* Remove satisfied clauses and falsified literals once new top-level facts
   have appeared.  Reasons of level-0 assignments are cleared first: they
   are never inspected again (conflict analysis skips level-0 variables), so
   their clauses become eligible for deletion. *)
let simplify_db t =
  if
    t.ok && decision_level t = 0 && t.qhead = t.trail_size
    && t.trail_size > t.simp_head
  then begin
    for i = 0 to t.trail_size - 1 do
      t.reason.(Lit.var t.trail.(i)) <- None
    done;
    let units = ref [] in
    let clean (c : clause) =
      if not c.dead then begin
        let lits = c.lits in
        let len = Array.length lits in
        let sat = ref false in
        let n = ref 0 in
        for i = 0 to len - 1 do
          match value_lit t lits.(i) with
          | 1 -> sat := true
          | 0 -> ()
          | _ -> incr n
        done;
        if !sat then c.dead <- true
        else if !n < len then begin
          let out = Array.make (max !n 1) 0 in
          let j = ref 0 in
          for i = 0 to len - 1 do
            if value_lit t lits.(i) < 0 then begin
              out.(!j) <- lits.(i);
              incr j
            end
          done;
          match !n with
          | 0 -> t.ok <- false
          | 1 ->
            units := out.(0) :: !units;
            c.dead <- true
          | _ ->
            c.lits <- out;
            if c.lbd > !n - 1 then c.lbd <- max 1 (!n - 1)
        end
      end
    in
    cvec_iter clean t.clauses;
    cvec_iter clean t.learnts;
    cvec_compact t.clauses;
    cvec_compact t.learnts;
    rebuild_watches t;
    List.iter (fun l -> if t.ok && value_lit t l < 0 then enqueue t l None) !units;
    if t.ok && List.exists (fun l -> value_lit t l = 0) !units then t.ok <- false;
    if t.ok && propagate t <> None then t.ok <- false;
    t.simp_head <- t.trail_size
  end

(* -- inprocessing: learnt-clause subsumption + vivification -- *)

(* 64-bit variable signature for the subsumption prefilter. *)
let clause_sig lits =
  Array.fold_left (fun s l -> s lor (1 lsl (Lit.var l land 63))) 0 lits

(* Backward subsumption and self-subsuming strengthening over the learnt
   database, under a literal-visit budget.  Only called at decision level 0
   right after [simplify_db], so no learnt clause is locked. *)
let subsume_learnts t =
  let cands = ref [] in
  cvec_iter
    (fun c -> if (not c.dead) && Array.length c.lits <= 40 then cands := c :: !cands)
    t.learnts;
  let arr = Array.of_list !cands in
  Array.sort
    (fun (a : clause) (b : clause) ->
      compare (Array.length a.lits) (Array.length b.lits))
    arr;
  let sigs = Array.map (fun c -> clause_sig c.lits) arr in
  let budget = ref 2_000_000 in
  let units = ref [] in
  let n = Array.length arr in
  let i = ref 0 in
  while !i < n && !budget > 0 do
    let ci = arr.(!i) in
    if not ci.dead then begin
      let ni = Array.length ci.lits in
      t.lit_counter <- t.lit_counter + 1;
      let st = t.lit_counter in
      Array.iter (fun l -> t.lit_stamp.(l) <- st) ci.lits;
      let sig_i = sigs.(!i) in
      for j = !i + 1 to n - 1 do
        let cj = arr.(j) in
        if (not cj.dead) && !budget > 0 && sig_i land lnot sigs.(j) = 0
           && Array.length cj.lits >= ni
        then begin
          budget := !budget - Array.length cj.lits;
          let hits = ref 0 and negs = ref 0 and neg_lit = ref (-1) in
          Array.iter
            (fun r ->
              if t.lit_stamp.(r) = st then incr hits
              else if t.lit_stamp.(Lit.neg r) = st then begin
                incr negs;
                neg_lit := r
              end)
            cj.lits;
          if !hits = ni then begin
            (* ci subsumes cj *)
            cj.dead <- true;
            t.subsumed <- t.subsumed + 1
          end
          else if !hits = ni - 1 && !negs = 1 then begin
            (* self-subsuming resolution: remove [neg_lit] from cj *)
            let out =
              Array.of_list
                (List.filter (fun l -> l <> !neg_lit) (Array.to_list cj.lits))
            in
            t.strengthened <- t.strengthened + 1;
            if Array.length out = 1 then begin
              units := out.(0) :: !units;
              cj.dead <- true
            end
            else begin
              cj.lits <- out;
              sigs.(j) <- clause_sig out;
              if cj.lbd > Array.length out - 1 then
                cj.lbd <- max 1 (Array.length out - 1)
            end
          end
        end
      done
    end;
    incr i
  done;
  cvec_compact t.learnts;
  List.iter (fun l -> if t.ok && value_lit t l < 0 then enqueue t l None) !units;
  if t.ok && List.exists (fun l -> value_lit t l = 0) !units then t.ok <- false

(* Clause vivification: re-derive each clause under unit propagation and
   keep only the prefix actually needed.  Sound at level 0: assuming the
   negation of the kept prefix, a conflict or a satisfied/falsified literal
   proves the shortened clause is entailed. *)
let vivify t =
  let budget = ref 200_000 in
  let snapshot = ref [] in
  cvec_iter
    (fun c ->
      if (not c.dead) && c.tier <= tier_two && Array.length c.lits >= 3 then
        snapshot := c :: !snapshot)
    t.learnts;
  List.iter
    (fun c ->
      if t.ok && !budget > 0 && not c.dead then begin
        detach_clause t c;
        let lits = Array.copy c.lits in
        let kept = ref [] in
        let nkept = ref 0 in
        let stop = ref false in
        let i = ref 0 in
        while (not !stop) && !i < Array.length lits do
          let l = lits.(!i) in
          (match value_lit t l with
          | 1 ->
            (* implied by the negated prefix: truncate here *)
            kept := l :: !kept;
            incr nkept;
            stop := true
          | 0 -> () (* falsified by the negated prefix: drop *)
          | _ ->
            new_decision_level t;
            enqueue t (Lit.neg l) None;
            let p0 = t.propagations in
            let confl = propagate t in
            budget := !budget - (t.propagations - p0);
            kept := l :: !kept;
            incr nkept;
            if confl <> None then stop := true);
          incr i
        done;
        cancel_until t 0;
        let new_len = !nkept in
        if new_len < Array.length lits then begin
          t.vivified <- t.vivified + 1;
          t.vivified_lits <- t.vivified_lits + (Array.length lits - new_len);
          match new_len with
          | 0 -> t.ok <- false
          | 1 ->
            c.dead <- true;
            let l = List.hd !kept in
            if value_lit t l < 0 then begin
              enqueue t l None;
              if propagate t <> None then t.ok <- false
            end
            else if value_lit t l = 0 then t.ok <- false
          | _ ->
            c.lits <- Array.of_list (List.rev !kept);
            if c.lbd > new_len - 1 then c.lbd <- max 1 (new_len - 1);
            attach_clause t c
        end
        else attach_clause t c
      end)
    !snapshot;
  cvec_compact t.learnts

(* One inprocessing round: level-0 simplification, subsumption,
   vivification, then a full watch rebuild and re-propagation of the trail
   so the solver is back at a clean fixpoint. *)
let inprocess t =
  if t.ok && decision_level t = 0 then begin
    t.inprocess_rounds <- t.inprocess_rounds + 1;
    simplify_db t;
    if t.ok then begin
      subsume_learnts t;
      if t.ok then vivify t;
      rebuild_watches t;
      t.qhead <- 0;
      if t.ok && propagate t <> None then t.ok <- false
    end
  end

(* -- search -- *)

(* The Luby sequence, which paces restarts in stable phases: luby y x is
   y^(position of x in the sequence 1 1 2 1 1 2 4 ...). *)
let luby y x =
  let rec grow size seq =
    if size < x + 1 then grow ((2 * size) + 1) (seq + 1) else (size, seq)
  in
  let rec shrink x size seq =
    if size - 1 = x then seq
    else
      let size = (size - 1) / 2 in
      shrink (x mod size) size (seq - 1)
  in
  let size, seq = grow 1 0 in
  y ** float_of_int (shrink x size seq)

(* Highest-activity unassigned variable, or -1 when all are assigned. *)
let rec pick_branch_var t =
  if t.heap_size = 0 then -1
  else begin
    let v = heap_pop t in
    if t.assign.(v) < 0 then v else pick_branch_var t
  end

let record_learnt t lits btlevel lbd =
  (* [btlevel] has already been clamped to the root (assumption) level by
     the caller *)
  t.learned_total <- t.learned_total + 1;
  let b = if lbd < 0 then 0 else min lbd (Array.length t.lbd_hist - 1) in
  t.lbd_hist.(b) <- t.lbd_hist.(b) + 1;
  cancel_until t btlevel;
  match Array.length lits with
  | 1 -> enqueue t lits.(0) None
  | _ ->
    let tier =
      if lbd <= 2 then tier_core
      else if lbd <= 6 then tier_two
      else tier_local
    in
    let c =
      { lits; activity = 0.0; lbd; learnt = true; tier; used = 2; dead = false }
    in
    (* watch the asserting literal and a literal from the backtrack level *)
    let rec max_idx i best =
      if i >= Array.length lits then best
      else if t.level.(Lit.var lits.(i)) > t.level.(Lit.var lits.(best)) then
        max_idx (i + 1) i
      else max_idx (i + 1) best
    in
    let m = max_idx 2 1 in
    let tmp = c.lits.(1) in
    c.lits.(1) <- c.lits.(m);
    c.lits.(m) <- tmp;
    cvec_push t.learnts c;
    attach_clause t c;
    cla_bump t c;
    enqueue t lits.(0) (Some c)

(* EMA restart check; called between decisions in focused phases.  May
   postpone a due restart (by resetting the fast average) when the trail is
   unusually deep — a sign the solver is making assignment progress. *)
let ema_restart_due t =
  if t.ema_fast > 1.25 *. t.ema_slow then begin
    if float_of_int t.trail_size > 1.4 *. t.trail_ema then begin
      t.ema_fast <- t.ema_slow;
      false
    end
    else true
  end
  else false

type outcome = O_sat | O_unsat | O_restart | O_budget

(* Search below the assumption (root) level: backtracking never unassigns
   the assumptions, and a conflict at or below the root level means UNSAT
   under the current assumptions.  [restart_limit] > 0 gives a fixed-size
   restart (a stable phase); 0 means EMA-driven. *)
let search t ~root_level ~restart_limit ~budget =
  let conflicts_here = ref 0 in
  let result = ref None in
  while !result = None do
    match propagate t with
    | Some confl ->
      t.conflicts <- t.conflicts + 1;
      incr conflicts_here;
      if decision_level t <= root_level then result := Some O_unsat
      else begin
        let learnt, btlevel, lbd = analyze t confl in
        let fl = float_of_int lbd in
        if t.conflicts = 1 then begin
          (* seed the averages with the first observation: starting from
             0.0 leaves the fast EMA hundreds of times above the slow one
             for thousands of conflicts, saturating the restart test
             throughout warm-up *)
          t.ema_fast <- fl;
          t.ema_slow <- fl;
          t.trail_ema <- float_of_int t.trail_size
        end
        else begin
          t.ema_fast <- t.ema_fast +. ((fl -. t.ema_fast) /. 32.0);
          t.ema_slow <- t.ema_slow +. ((fl -. t.ema_slow) /. 8192.0);
          t.trail_ema <-
            t.trail_ema +. ((float_of_int t.trail_size -. t.trail_ema) /. 4096.0)
        end;
        record_learnt t learnt (max btlevel root_level) lbd;
        var_decay t;
        cla_decay t;
        if t.conflicts - t.last_reduce >= t.reduce_limit then begin
          t.last_reduce <- t.conflicts;
          t.reduce_limit <- t.reduce_limit + (t.config.reduce_interval / 4);
          reduce_db t
        end
      end
    | None ->
      if budget > 0 && t.conflicts >= budget then begin
        cancel_until t root_level;
        result := Some O_budget
      end
      else if
        (if restart_limit > 0 then !conflicts_here >= restart_limit
         else !conflicts_here >= 50 && ema_restart_due t)
      then begin
        cancel_until t root_level;
        result := Some O_restart
      end
      else begin
        let v = pick_branch_var t in
        if v < 0 then result := Some O_sat
        else begin
          t.decisions <- t.decisions + 1;
          new_decision_level t;
          (* saved phase: branch on the value [v] last held *)
          enqueue t (Lit.of_var v ~negated:(not t.polarity.(v))) None
        end
      end
  done;
  match !result with Some r -> r | None -> assert false

let solve ?(conflict_budget = 0) ?(assumptions = []) t =
  if not t.ok then Unsat
  else begin
    cancel_until t 0;
    (* level-0 housekeeping before assumptions go on the trail *)
    if t.conflicts - t.last_inprocess >= t.config.inprocess_interval then begin
      t.last_inprocess <- t.conflicts;
      inprocess t
    end
    else simplify_db t;
    if not t.ok then Unsat
    else begin
      (* push assumptions as successive decision levels *)
      let rec push = function
        | [] -> None
        | l :: rest -> (
          ensure_var t (Lit.var l);
          match value_lit t l with
          | 1 -> push rest
          | 0 -> Some Unsat
          | _ ->
            new_decision_level t;
            enqueue t l None;
            (match propagate t with Some _ -> Some Unsat | None -> push rest))
      in
      match push assumptions with
      | Some r ->
        cancel_until t 0;
        r
      | None ->
        (* assumptions stay on the trail below [root_level] for the whole
           solve; search never backtracks past them *)
        let root_level = decision_level t in
        let start_conflicts = t.conflicts in
        let budget =
          if conflict_budget > 0 then start_conflicts + conflict_budget else 0
        in
        let rec restart_loop () =
          (* alternate focused (EMA) and stable (Luby-paced) phases of
             doubling length so saved phases can settle *)
          if t.conflicts >= t.stab_next then begin
            t.stab_stable <- not t.stab_stable;
            t.stab_len <- 2 * t.stab_len;
            t.stab_next <- t.conflicts + t.stab_len
          end;
          let restart_limit =
            if t.stab_stable then int_of_float (luby 2.0 t.stable_idx *. 512.0)
            else 0
          in
          match search t ~root_level ~restart_limit ~budget with
          | O_sat -> Sat
          | O_unsat -> Unsat
          | O_budget -> Unknown
          | O_restart ->
            t.restarts <- t.restarts + 1;
            if t.stab_stable then t.stable_idx <- t.stable_idx + 1;
            (* inprocess between restarts, but only when nothing is pinned
               on the trail by assumptions *)
            if
              root_level = 0
              && t.conflicts - t.last_inprocess >= t.config.inprocess_interval
            then begin
              t.last_inprocess <- t.conflicts;
              inprocess t
            end;
            if not t.ok then Unsat else restart_loop ()
        in
        let r = restart_loop () in
        (match r with
        | Sat -> r (* keep the model; caller reads it before further solving *)
        | Unsat | Unknown ->
          cancel_until t 0;
          r)
    end
  end

(* Model access: only meaningful right after [solve] returned [Sat]. *)
let model_value t v = t.assign.(v) = 1

(* -- statistics -- *)

(* Every kernel counter as label/value pairs, cheap enough to take
   before and after each solve (one learnt-DB scan).  This is the
   telemetry surface the observability layer consumes (satkit itself has
   no obs dependency): callers publish it as [solver_*] trace counters.
   The learn-time LBD histogram ([lbd_hist]: bucket i = clauses learnt
   with LBD i, last bucket open-ended) is summarized into the three
   tier-defining ranges, the distribution that tells a glue-rich easy
   instance apart from a thrashing one. *)
let stats t =
  let core = ref 0 and tier2 = ref 0 and local = ref 0 in
  cvec_iter
    (fun c ->
      if c.tier = tier_core then incr core
      else if c.tier = tier_two then incr tier2
      else incr local)
    t.learnts;
  let lbd_range lo hi =
    let acc = ref 0 in
    for i = lo to min hi (Array.length t.lbd_hist - 1) do
      acc := !acc + t.lbd_hist.(i)
    done;
    !acc
  in
  [
    ("vars", t.num_vars);
    ("clauses", t.clauses.cn);
    ("learnts", t.learnts.cn);
    ("learnts_core", !core);
    ("learnts_tier2", !tier2);
    ("learnts_local", !local);
    ("learned_total", t.learned_total);
    ("conflicts", t.conflicts);
    ("decisions", t.decisions);
    ("propagations", t.propagations);
    ("restarts", t.restarts);
    ("reduces", t.reduces);
    ("inprocess_rounds", t.inprocess_rounds);
    ("minimized_lits", t.minimized_lits);
    ("subsumed", t.subsumed);
    ("strengthened", t.strengthened);
    ("vivified", t.vivified);
    ("vivified_lits", t.vivified_lits);
    ("lbd_glue", lbd_range 0 2);
    ("lbd_mid", lbd_range 3 6);
    ("lbd_high", lbd_range 7 (Array.length t.lbd_hist - 1));
  ]
