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
  module T = Topo.Make (N)
  module R = Reconv.Make (N)
  module W = Window.Make (N)
  module M = Mffc.Make (N)
  module Co = Cost.Make (N)

  (* literal = (signal, function over window leaves) *)
  type literal = N.signal * Tt.t

  let implies a b = Tt.is_const0 Tt.(a &: ~:b)

  (* 0-resub: the target is a constant or an existing literal. *)
  let resub0 (lits : literal array) target =
    if Tt.is_const0 target then Some (N.constant false)
    else if Tt.is_const1 target then Some (N.constant true)
    else begin
      let found = ref None in
      Array.iter
        (fun (s, tt) ->
          if !found = None && Tt.equal tt target then found := Some s)
        lits;
      !found
    end

  (* OR 1-resub: target = l1 | l2 with both literals implying the target. *)
  let resub_or net (lits : literal array) target =
    let pool =
      List.filter (fun (_, tt) -> implies tt target) (Array.to_list lits)
    in
    let rec pairs = function
      | [] -> None
      | (s1, t1) :: rest ->
        let hit =
          List.find_opt (fun (_, t2) -> Tt.equal Tt.(t1 |: t2) target) rest
        in
        (match hit with
        | Some (s2, _) -> Some (N.create_or net s1 s2)
        | None -> pairs rest)
    in
    pairs pool

  (* AND 1-resub via duality: target = l1 & l2  iff  !target = !l1 | !l2. *)
  let resub_and net (lits : literal array) target =
    let pool =
      List.filter (fun (_, tt) -> implies target tt) (Array.to_list lits)
    in
    let rec pairs = function
      | [] -> None
      | (s1, t1) :: rest ->
        let hit =
          List.find_opt (fun (_, t2) -> Tt.equal Tt.(t1 &: t2) target) rest
        in
        (match hit with
        | Some (s2, _) -> Some (N.create_and net s1 s2)
        | None -> pairs rest)
    in
    pairs pool

  (* XOR 1-resub: target = l1 ^ l2, by exact hashing of the needed
     counterpart. *)
  let resub_xor net (lits : literal array) target =
    let found = ref None in
    let table = Hashtbl.create (Array.length lits) in
    Array.iter (fun (s, tt) -> Hashtbl.replace table (Tt.to_hex tt) s) lits;
    Array.iter
      (fun (s1, t1) ->
        if !found = None then begin
          let needed = Tt.( ^: ) target t1 in
          match Hashtbl.find_opt table (Tt.to_hex needed) with
          | Some s2 when s2 <> s1 -> found := Some (N.create_xor net s1 s2)
          | Some _ | None -> ()
        end)
      lits;
    !found

  (* OR 2-resub: target = l1 | (l2 & l3). *)
  let resub_or_and net (lits : literal array) target =
    let unate =
      List.filter (fun (_, tt) -> implies tt target) (Array.to_list lits)
    in
    let result = ref None in
    List.iter
      (fun (s1, t1) ->
        if !result = None then begin
          let rem = Tt.(target &: ~:t1) in
          if not (Tt.is_const0 rem) then begin
            (* both remaining literals must cover the remainder *)
            let covering =
              List.filter (fun (_, tt) -> implies rem tt) (Array.to_list lits)
            in
            let rec pairs = function
              | [] -> ()
              | (s2, t2) :: rest ->
                let hit =
                  List.find_opt
                    (fun (_, t3) -> Tt.equal Tt.(t1 |: (t2 &: t3)) target)
                    rest
                in
                (match hit with
                | Some (s3, _) ->
                  result := Some (N.create_or net s1 (N.create_and net s2 s3))
                | None -> pairs rest)
            in
            pairs covering
          end
        end)
      unate;
    !result

  (* AND 2-resub via duality: target = l1 & (l2 | l3). *)
  let resub_and_or net (lits : literal array) target =
    let neg_lits = Array.map (fun (s, tt) -> (N.complement s, Tt.( ~: ) tt)) lits in
    match resub_or_and net neg_lits (Tt.( ~: ) target) with
    | Some s -> Some (N.complement s)
    | None -> None

  (* XOR 2-resub: target = l1 ^ (l2 & l3), by exact hashing of l1. *)
  let resub_xor_and net (lits : literal array) target =
    let table = Hashtbl.create (Array.length lits) in
    Array.iter (fun (s, tt) -> Hashtbl.replace table (Tt.to_hex tt) s) lits;
    let n_lits = Array.length lits in
    let result = ref None in
    let i = ref 0 in
    while !result = None && !i < n_lits do
      let s2, t2 = lits.(!i) in
      let j = ref (!i + 1) in
      while !result = None && !j < n_lits do
        let s3, t3 = lits.(!j) in
        if N.node_of_signal s2 <> N.node_of_signal s3 then begin
          let conj = Tt.( &: ) t2 t3 in
          let needed = Tt.( ^: ) target conj in
          match Hashtbl.find_opt table (Tt.to_hex needed) with
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
      let s1, t1 = lits.(!i) in
      let j = ref (!i + 1) in
      while !result = None && !j < n_lits do
        let s2, t2 = lits.(!j) in
        if
          N.node_of_signal s1 <> N.node_of_signal s2
          && implies Tt.(t1 &: t2) target
          && implies target Tt.(t1 |: t2)
        then begin
          let differ = Tt.(t1 ^: t2) in
          let k = ref 0 in
          while !result = None && !k < n_lits do
            let s3, t3 = lits.(!k) in
            if
              N.node_of_signal s3 <> N.node_of_signal s1
              && N.node_of_signal s3 <> N.node_of_signal s2
              && Tt.is_const0 Tt.((t3 ^: target) &: differ)
            then result := Some (N.create_maj net s1 s2 s3);
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

  (* One resubstitution pass (paper Algorithm 5). *)
  let run (net : N.t) ~(kernel : kernel) ?(trace = Obs.Trace.null)
      ?(cost = Cost.Spec.Area) ?(max_leaves = 8) ?(max_divisors = 24)
      ?(max_inserted = 1) () : int =
    let eng = Co.engine cost in
    let substitutions = ref 0 in
    let tried = ref 0 and rejected = ref 0 in
    List.iter
      (fun n ->
        if N.is_gate net n && (not (N.is_dead net n)) && N.ref_count net n > 0
        then begin
          let leaves = R.compute net ~max_leaves n in
          if leaves <> [] then begin
            let w = W.of_cut net n leaves in
            let mffc_size = M.size net n in
            if mffc_size > 0 then begin
              let divisors = W.divisors net w ~max:max_divisors in
              let divisors = List.filter (fun d -> d <> n) divisors in
              let values = W.simulate net w in
              W.simulate_divisors net w values divisors;
              let target = Hashtbl.find values n in
              let lits =
                Array.of_list
                  (List.concat_map
                     (fun d ->
                       let tt = Hashtbl.find values d in
                       let s = N.signal_of_node d in
                       [ (s, tt); (N.complement s, Tt.( ~: ) tt) ])
                     divisors)
              in
              (* candidate cones are built from divisor literals, so the
                 cycle guard can stop at divisors as well as leaves *)
              let stop_nodes =
                Array.append w.W.leaves (Array.of_list divisors)
              in
              (* try k = 0, 1, ... and accept the first positive gain *)
              let rec attempt k =
                if k > max_inserted || k >= mffc_size then ()
                else begin
                  let mark = eng.Co.mark net in
                  match try_kernel net kernel k lits target with
                  | None -> attempt (k + 1)
                  | Some s ->
                    incr tried;
                    let root = N.node_of_signal s in
                    let gain = Co.gain eng net ~mark ~root n in
                    if
                      Co.accept eng gain && root <> n
                      && not (T.cone_contains net ~root ~leaves:stop_nodes n)
                    then begin
                      N.substitute_node net n s;
                      incr substitutions
                    end
                    else begin
                      incr rejected;
                      N.take_out_if_dead net root;
                      attempt (k + 1)
                    end
                end
              in
              attempt 0
            end
          end
        end)
      (T.order net);
    Obs.Trace.report trace ~algo:"resub"
      [
        ("tried", !tried);
        ("accepted", !substitutions);
        ("rejected", !rejected);
      ];
    !substitutions
end
