(* Boolean resubstitution (paper Algorithm 5): re-express the function of a
   node using divisors that already exist in the network.  The generic
   skeleton — reconvergence-driven windowing, divisor collection,
   simulation, DAG-aware gain — is representation-independent; only the
   computational kernel (paper §2.3.4) differs per representation:

   - [And_or]      0-resub, AND/OR 1-resub, AND-OR 2-resub   (AIGs)
   - [And_or_xor]  adds XOR 1- and 2-resub                   (XAGs)
   - [Maj3]        0-resub and majority 1-resub              (MIGs, XMGs)

   Divisor filtering follows the unateness rules the paper cites: a literal
   can only appear under an OR root if it implies the target, and under an
   AND root if the target implies it. *)

open Kitty

type kernel = And_or | And_or_xor | Maj3

module Make (N : Network.Intf.NETWORK) = struct
  module T = Network.Topo.Make (N)
  module R = Reconv.Make (N)
  module W = Window.Make (N)
  module M = Mffc.Make (N)
  module Co = Cost.Make (N)

  (* A literal: a divisor's signal, or its complement, over the divisor's
     one window table.  [neg] says the literal's function is the table's
     complement.  The AND/OR and MAJ kernels read it through the
     [Tt.*_c] checks and build no complement; only the XOR kernels,
     which hash functions, do. *)
  type literal = { s : N.signal; tt : Tt.t; neg : bool }

  (* 0-resub: the target is a constant or an existing literal. *)
  let resub0 (lits : literal array) target =
    if Tt.is_const0 target then Some (N.constant false)
    else if Tt.is_const1 target then Some (N.constant true)
    else
      Array.find_map
        (fun l -> if Tt.equal_c l.neg l.tt target then Some l.s else None)
        lits

  (* OR 1-resub: target = l1 | l2 with both literals implying the target. *)
  let resub_or net (lits : literal array) target =
    let pool =
      List.filter
        (fun l -> Tt.implies_c l.neg l.tt false target)
        (Array.to_list lits)
    in
    let rec pairs = function
      | [] -> None
      | l1 :: rest -> (
        match
          List.find_opt
            (fun l2 -> Tt.or_equal_c l1.neg l1.tt l2.neg l2.tt target)
            rest
        with
        | Some l2 -> Some (N.create_or net l1.s l2.s)
        | None -> pairs rest)
    in
    pairs pool

  (* AND 1-resub via duality: target = l1 & l2  iff  !target = !l1 | !l2. *)
  let resub_and net (lits : literal array) target =
    let pool =
      List.filter
        (fun l -> Tt.implies_c false target l.neg l.tt)
        (Array.to_list lits)
    in
    let rec pairs = function
      | [] -> None
      | l1 :: rest -> (
        match
          List.find_opt
            (fun l2 -> Tt.and_equal_c l1.neg l1.tt l2.neg l2.tt target)
            rest
        with
        | Some l2 -> Some (N.create_and net l1.s l2.s)
        | None -> pairs rest)
    in
    pairs pool

  (* The XOR kernels look up a needed function among the literals' own
     functions, by hashing, and a hash key is a table: they build the
     negative literals' complements, once per call, and map each function
     to the last literal's signal. *)
  let literal_functions (lits : literal array) =
    Array.map (fun l -> if l.neg then Tt.( ~: ) l.tt else l.tt) lits

  let function_table (lits : literal array) funcs =
    let table = Tt.Tbl.create (Array.length lits) in
    Array.iteri (fun i f -> Tt.Tbl.replace table f lits.(i).s) funcs;
    table

  (* XOR 1-resub: target = l1 ^ l2, by exact hashing of the needed
     counterpart. *)
  let resub_xor net (lits : literal array) target =
    let funcs = literal_functions lits in
    let table = function_table lits funcs in
    let found = ref None and i = ref 0 in
    while !found = None && !i < Array.length lits do
      let s1 = lits.(!i).s in
      (match Tt.Tbl.find_opt table (Tt.( ^: ) target funcs.(!i)) with
      | Some s2 when s2 <> s1 -> found := Some (N.create_xor net s1 s2)
      | Some _ | None -> ());
      incr i
    done;
    !found

  (* OR 2-resub: target = l1 | (l2 & l3). *)
  let resub_or_and net (lits : literal array) target =
    let unate =
      List.filter
        (fun l -> Tt.implies_c l.neg l.tt false target)
        (Array.to_list lits)
    in
    let result = ref None in
    List.iter
      (fun l1 ->
        if !result = None then begin
          let rem = Tt.and_c false target (not l1.neg) l1.tt in
          if not (Tt.is_const0 rem) then begin
            (* both remaining literals must cover the remainder *)
            let covering =
              List.filter
                (fun l -> Tt.implies_c false rem l.neg l.tt)
                (Array.to_list lits)
            in
            let rec pairs = function
              | [] -> ()
              | l2 :: rest -> (
                match
                  List.find_opt
                    (fun l3 ->
                      Tt.or_and_equal_c l1.neg l1.tt l2.neg l2.tt l3.neg l3.tt
                        target)
                    rest
                with
                | Some l3 ->
                  result :=
                    Some (N.create_or net l1.s (N.create_and net l2.s l3.s))
                | None -> pairs rest)
            in
            pairs covering
          end
        end)
      unate;
    !result

  (* AND 2-resub via duality: target = l1 & (l2 | l3), found as the OR
     2-resub of the complemented target over the complemented literals. *)
  let resub_and_or net (lits : literal array) target =
    let neg_lits =
      Array.map (fun l -> { l with s = N.complement l.s; neg = not l.neg }) lits
    in
    match resub_or_and net neg_lits (Tt.( ~: ) target) with
    | Some s -> Some (N.complement s)
    | None -> None

  (* XOR 2-resub: target = l1 ^ (l2 & l3), by exact hashing of l1. *)
  let resub_xor_and net (lits : literal array) target =
    let funcs = literal_functions lits in
    let table = function_table lits funcs in
    let n_lits = Array.length lits in
    let result = ref None in
    let i = ref 0 in
    while !result = None && !i < n_lits do
      let s2 = lits.(!i).s in
      let j = ref (!i + 1) in
      while !result = None && !j < n_lits do
        let s3 = lits.(!j).s in
        if N.node_of_signal s2 <> N.node_of_signal s3 then begin
          let conj = Tt.( &: ) funcs.(!i) funcs.(!j) in
          match Tt.Tbl.find_opt table (Tt.( ^: ) target conj) with
          | Some s1 -> result := Some (N.create_xor net s1 (N.create_and net s2 s3))
          | None -> ()
        end;
        incr j
      done;
      incr i
    done;
    !result

  (* MAJ 1-resub with the pairwise filtering rules: in maj(l1,l2,l3) any two
     true literals force the output, so l_i & l_j must imply the target and
     the target must imply l_i | l_j; the third literal is then determined
     where l1 and l2 disagree. *)
  let resub_maj net (lits : literal array) target =
    let n_lits = Array.length lits in
    let result = ref None in
    let i = ref 0 in
    while !result = None && !i < n_lits do
      let l1 = lits.(!i) in
      let j = ref (!i + 1) in
      while !result = None && !j < n_lits do
        let l2 = lits.(!j) in
        if
          N.node_of_signal l1.s <> N.node_of_signal l2.s
          && Tt.and_implies_c l1.neg l1.tt l2.neg l2.tt false target
          (* !l1 & !l2 implies !target *)
          && Tt.and_implies_c (not l1.neg) l1.tt (not l2.neg) l2.tt true target
        then begin
          (* the minterms where l1 and l2 differ, as [differ] complemented
             when [flip] *)
          let differ = Tt.( ^: ) l1.tt l2.tt and flip = l1.neg <> l2.neg in
          let k = ref 0 in
          while !result = None && !k < n_lits do
            let l3 = lits.(!k) in
            (* where they differ, l3 equals the target: l3 ^ target
               vanishes there *)
            if
              N.node_of_signal l3.s <> N.node_of_signal l1.s
              && N.node_of_signal l3.s <> N.node_of_signal l2.s
              && Tt.implies_c flip differ (not l3.neg) (Tt.( ^: ) l3.tt target)
            then result := Some (N.create_maj net l1.s l2.s l3.s);
            incr k
          done
        end;
        incr j
      done;
      incr i
    done;
    !result

  let kernel_candidates kernel k =
    (* which resub functions to try for [k] inserted gates *)
    match (kernel, k) with
    | (And_or | And_or_xor | Maj3), 0 -> [ `Zero ]
    | And_or, 1 -> [ `Or; `And ]
    | And_or_xor, 1 -> [ `Or; `And; `Xor ]
    | Maj3, 1 -> [ `Maj ]
    | And_or, 2 -> [ `Or_and; `And_or ]
    | And_or_xor, 2 -> [ `Or_and; `And_or; `Xor_and ]
    | Maj3, _ -> []
    | (And_or | And_or_xor), _ -> []

  let try_kernel net kernel k (lits : literal array) target =
    let try_one = function
      | `Zero -> resub0 lits target
      | `Or -> resub_or net lits target
      | `And -> resub_and net lits target
      | `Xor -> resub_xor net lits target
      | `Or_and -> resub_or_and net lits target
      | `And_or -> resub_and_or net lits target
      | `Xor_and -> resub_xor_and net lits target
      | `Maj -> resub_maj net lits target
    in
    let rec go = function
      | [] -> None
      | c :: rest -> (
        match try_one c with Some s -> Some s | None -> go rest)
    in
    go (kernel_candidates kernel k)

  (* The literals of [divisors]: each divisor's signal and its
     complement, both over the divisor's window table. *)
  let no_literal = { s = N.constant false; tt = Tt.const0 0; neg = false }

  let literals (net : N.t) tb (divisors : N.node array) : literal array =
    let lits = Array.make (2 * Array.length divisors) no_literal in
    Array.iteri
      (fun i d ->
        let tt = W.find net tb d in
        let s = N.signal_of_node d in
        lits.(2 * i) <- { s; tt; neg = false };
        lits.((2 * i) + 1) <- { s = N.complement s; tt; neg = true })
      divisors;
    lits

  (* One resubstitution pass (paper Algorithm 5); returns the accumulated
     gain (in units of the cost objective) of the accepted substitutions.
     A traced pass also times its phases: windowing (reconvergent cut,
     cone, MFFC and divisors), simulation (window tables and literals)
     and the kernels. *)
  let run (net : N.t) ~(kernel : kernel) ?(trace = Obs.Trace.null)
      ?(cost = Cost.Spec.Area) ?(max_leaves = 8) ?(max_inserted = 1) () : int =
    let substitutions = ref 0 and total_gain = ref 0 in
    let tried = ref 0 in
    let window_ns = ref 0 and sim_ns = ref 0 and kernel_ns = ref 0 in
    let timed = Obs.Trace.enabled trace in
    (* [f ()], its time added to [acc] when the pass is traced *)
    let time acc f =
      if not timed then f ()
      else begin
        let t0 = Unix.gettimeofday () in
        let r = f () in
        acc := !acc + int_of_float ((Unix.gettimeofday () -. t0) *. 1e9);
        r
      end
    in
    let window n =
      let leaves = R.compute net ~max_leaves n in
      if Array.length leaves = 0 then None
      else begin
        let w = W.of_cut net n leaves in
        let mffc = M.collect net n in
        if mffc = [] then None
        else
          (* the root is in its own MFFC, so never a divisor *)
          Some (w, List.length mffc, W.divisors net w ~mffc ~max:24)
      end
    in
    List.iter
      (fun n ->
        if N.is_gate net n && (not (N.is_dead net n)) && N.ref_count net n > 0
        then
          match time window_ns (fun () -> window n) with
          | None -> ()
          | Some (w, mffc_size, divisors) ->
            let target, lits =
              time sim_ns (fun () ->
                  let tb = W.simulate net w in
                  W.simulate_divisors net tb divisors;
                  (W.find net tb n, literals net tb divisors))
            in
            (* candidate cones are built from divisor literals, so the
               cycle guard can stop at divisors as well as leaves *)
            let stop_nodes = Array.append w.W.leaves divisors in
            (* try k = 0, 1, ... and accept the first positive gain *)
            let rec attempt k =
              if k > max_inserted || k >= mffc_size then ()
              else
                match
                  Co.replace cost net ~leaves:stop_nodes n (fun () ->
                      time kernel_ns (fun () ->
                          try_kernel net kernel k lits target))
                with
                | Co.No_candidate -> attempt (k + 1)
                | Co.Cycle | Co.Rejected _ ->
                  incr tried;
                  attempt (k + 1)
                | Co.Replaced gain ->
                  incr tried;
                  incr substitutions;
                  total_gain := !total_gain + gain
            in
            attempt 0)
      (T.order net);
    Obs.Trace.report trace ~algo:"resub"
      [
        ("tried", !tried);
        ("accepted", !substitutions);
        ("rejected", !tried - !substitutions);
        ("gain", !total_gain);
        ("window_ns", !window_ns);
        ("sim_ns", !sim_ns);
        ("kernel_ns", !kernel_ns);
      ];
    !total_gain
end
