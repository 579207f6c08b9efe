(* Conformance suite for the cost-generic optimization layer
   (Algo.Cost): every built-in objective must price networks the way its
   engine assumes —

   - [eval net] = the fold of [node_cost net] over live gates, with [+]
     for additive objectives and [max] for depth (over the gates an
     output reaches)
   - gain telescoping (additive objectives): [freed] is exactly the MFFC
     objective mass, [added] is exactly the eval delta of a build, and a
     pass's accumulated gain lower-bounds the realized network delta
   - the replacement step ([Cost.replace]) changes the network only when
     it substitutes

   The laws run on random networks over random seeds. *)

open Network

module Co = Algo.Cost.Make (Aig)
module CoM = Algo.Cost.Make (Mig)
module G = Gen.Make (Aig)
module Gm = Gen.Make (Mig)
module Rw = Algo.Rewrite.Make (Aig)
module Rf = Algo.Refactor.Make (Aig)
module Bz = Algo.Balance.Make (Aig)
module Cec = Algo.Cec.Make (Aig) (Aig)
module T = Network.Topo.Make (Aig)

let test_weights =
  Algo.Cost.Spec.Weights
    {
      Algo.Cost.Spec.w_source = "test";
      w_and = 3;
      w_xor = 2;
      w_maj = 5;
      w_lut = 4;
      w_default = 1;
    }

(* every built-in spec, including a non-default LUT size *)
let specs =
  [
    Algo.Cost.Spec.Area;
    Algo.Cost.Spec.Depth;
    Algo.Cost.Spec.Edges;
    Algo.Cost.Spec.Activity;
    Algo.Cost.Spec.Lut 6;
    Algo.Cost.Spec.Lut 4;
    test_weights;
  ]

let additive_specs = List.filter Algo.Cost.Spec.is_additive specs
let spec_name = Algo.Cost.Spec.to_string

(* -- eval = fold of of_node over live gates (for depth, over the gates
   the outputs reach), on random networks -- *)

let fold_eval (type a) (module N : Intf.NETWORK with type t = a) ~spec
    ~of_node (net : a) =
  let module T = Network.Topo.Make (N) in
  let acc = ref 0 in
  if Algo.Cost.Spec.is_additive spec then
    N.foreach_gate net (fun n ->
        if not (N.is_dead net n) then acc := !acc + of_node net n)
  else List.iter (fun n -> acc := max !acc (of_node net n)) (T.order net);
  !acc

let eval_is_fold_props =
  List.map
    (fun spec ->
      QCheck.Test.make
        ~name:(Printf.sprintf "%s: eval = fold of_node (aig)" (spec_name spec))
        ~count:20
        QCheck.(int_bound 10_000)
        (fun seed ->
          let net =
            G.generate ~seed:(seed + 1) ~num_pis:5 ~num_gates:30 ~num_pos:3 ()
          in
          Co.eval spec net
          = fold_eval (module Aig) ~spec ~of_node:(Co.node_cost spec) net))
    specs

let eval_is_fold_mig_props =
  List.map
    (fun spec ->
      QCheck.Test.make
        ~name:(Printf.sprintf "%s: eval = fold of_node (mig)" (spec_name spec))
        ~count:10
        QCheck.(int_bound 10_000)
        (fun seed ->
          let net =
            Gm.generate ~use_maj:true ~seed:(seed + 1) ~num_pis:5 ~num_gates:30
              ~num_pos:3 ()
          in
          CoM.eval spec net
          = fold_eval (module Mig) ~spec ~of_node:(CoM.node_cost spec) net))
    specs

(* -- gain telescoping --

   The per-move accounting must be exact: [freed n] is the objective mass
   of n's MFFC (the nodes that die with n), and [added] is the objective
   mass of the slice built above the watermark — both must telescope into
   whole-network [eval] deltas.  Across a full pass the accumulated gain
   is a LOWER bound on the realized delta, not an equality: substitution
   redirects fanouts through the structural hash, which can cascade into
   merges beyond the measured MFFC (the seed's node-count protocol had
   the same property). *)

let db = lazy (Exact.Database.create Exact.Synth.aig_config)

module Mf = Algo.Mffc.Make (Aig)

(* One property per additive spec: [check net spec mass n] holds for every
   live gate [n] of random networks, [mass] summing node prices. *)
let per_gate_props ~name check =
  List.map
    (fun spec ->
      QCheck.Test.make
        ~name:(Printf.sprintf "%s: %s" (spec_name spec) name)
        ~count:15
        QCheck.(int_bound 10_000)
        (fun seed ->
          let net =
            G.generate ~seed:(seed + 1) ~num_pis:5 ~num_gates:30 ~num_pos:3 ()
          in
          let mass =
            List.fold_left (fun acc m -> acc + Co.node_cost spec net m) 0
          in
          let ok = ref true in
          Aig.foreach_gate net (fun n ->
              if
                (not (Aig.is_dead net n))
                && Aig.ref_count net n > 0
                && not (check net spec mass n)
              then ok := false);
          !ok))
    additive_specs

let freed_is_mffc_mass_props =
  per_gate_props ~name:"freed = MFFC mass" (fun net spec mass n ->
      Co.freed spec net n = mass (Mf.collect net n))

(* [gain ~root:m n] for an existing node [m] of [n]'s MFFC, with nothing
   built above the mark: holding [m] keeps alive [m] and every MFFC node
   in its fanin cone, so the gain is the MFFC mass minus the mass of that
   kept part.  (The kept part is [m]'s own MFFC only when no other MFFC
   node shares [m]'s fanin cone.) *)
let gain_holds_root_props =
  per_gate_props ~name:"gain holding an MFFC node" (fun net spec mass n ->
      let cone = Mf.collect net n in
      let rec kept acc x =
        if List.mem x acc || not (List.mem x cone) then acc
        else
          Array.fold_left
            (fun acc s -> kept acc (Aig.node_of_signal s))
            (x :: acc) (Aig.fanin net x)
      in
      List.for_all
        (fun m ->
          m = n
          || Co.gain spec net ~mark:(Aig.size net) ~root:m n
             = mass cone - mass (kept [] m))
        cone)

let added_is_eval_delta_props =
  List.map
    (fun spec ->
      QCheck.Test.make
        ~name:(Printf.sprintf "%s: added = eval delta of build" (spec_name spec))
        ~count:15
        QCheck.(int_bound 10_000)
        (fun seed ->
          let net =
            G.generate ~seed:(seed + 1) ~num_pis:5 ~num_gates:25 ~num_pos:3 ()
          in
          let before = Co.eval spec net in
          let mark = Aig.size net in
          (* grow a deterministic slice above the watermark; structural
             hashing may dedupe some of it — the accounting must agree
             either way *)
          let rng = Random.State.make [| seed |] in
          let pool = ref [] in
          Aig.foreach_gate net (fun n ->
              if not (Aig.is_dead net n) then
                pool := Aig.signal_of_node n :: !pool);
          let pool = Array.of_list !pool in
          let pick () =
            Network.Signal.complement_if
              (Random.State.bool rng)
              pool.(Random.State.int rng (Array.length pool))
          in
          let root = ref (pick ()) in
          for _ = 1 to 5 do
            root := Aig.create_and net !root (pick ())
          done;
          let added =
            Co.added spec net ~mark ~root:(Aig.node_of_signal !root)
          in
          Co.eval spec net - before = added))
    additive_specs

(* Rewrite, then refactor, then balance on one network, each pass's
   returned gain checked against the delta that pass realized. *)
let telescoping_props =
  List.map
    (fun spec ->
      QCheck.Test.make
        ~name:
          (Printf.sprintf "%s: pass gain bounds realized delta"
             (spec_name spec))
        ~count:8
        QCheck.(int_bound 10_000)
        (fun seed ->
          let generate () =
            G.generate ~seed:(seed + 1) ~num_pis:5 ~num_gates:40 ~num_pos:3 ()
          in
          let net = generate () in
          let bounded net pass =
            let before = Co.eval spec net in
            let gain = pass () in
            gain >= 0 && before - Co.eval spec net >= gain
          in
          bounded net (fun () -> Rw.run net ~db:(Lazy.force db) ~cost:spec ())
          && bounded net (fun () -> Rf.run net ~cost:spec ())
          && bounded net (fun () -> Bz.run ~cost:spec net)
          (* the specialized AIG rewriter counts gates: area only *)
          && (spec <> Algo.Cost.Spec.Area
             ||
             let net = generate () in
             bounded net (fun () -> Algo.Rewrite_aig.run net ~db:(Lazy.force db) ())
             )))
    additive_specs

(* The same law for resubstitution, one kernel per representation:
   under the area objective, the gain a pass returns never exceeds the
   gates it removed. *)
module Resub_gain (N : Network.Intf.NETWORK) = struct
  module G = Gen.Make (N)
  module C = Algo.Cost.Make (N)
  module R = Algo.Resub.Make (N)

  let holds ?use_maj kernel seed =
    let net =
      G.generate ?use_maj ~seed:(seed + 1) ~num_pis:5 ~num_gates:40
        ~num_pos:3 ()
    in
    let area = Algo.Cost.Spec.Area in
    let before = C.eval area net in
    let gain = R.run net ~kernel ~cost:area ~max_inserted:2 () in
    let after = C.eval area net in
    gain >= 0 && before - after >= gain
end

module Resub_gain_aig = Resub_gain (Aig)
module Resub_gain_xag = Resub_gain (Xag)
module Resub_gain_mig = Resub_gain (Mig)

let resub_telescoping =
  QCheck.Test.make ~name:"resub: pass gain bounds realized delta" ~count:8
    QCheck.(int_bound 10_000)
    (fun seed ->
      Resub_gain_aig.holds Algo.Resub.And_or seed
      && Resub_gain_xag.holds Algo.Resub.And_or_xor seed
      && Resub_gain_mig.holds ~use_maj:true Algo.Resub.Maj3 seed)

(* -- depth monotonicity: the max-monoid pass never deepens -- *)

let depth_never_worsens =
  QCheck.Test.make ~name:"depth: rewrite+refactor never deepen" ~count:8
    QCheck.(int_bound 10_000)
    (fun seed ->
      let spec = Algo.Cost.Spec.Depth in
      let net =
        G.generate ~seed:(seed + 1) ~num_pis:5 ~num_gates:40 ~num_pos:3 ()
      in
      let before = Co.eval spec net in
      ignore (Rw.run net ~db:(Lazy.force db) ~cost:spec ());
      ignore (Rf.run net ~cost:spec ());
      Co.eval spec net <= before)

(* -- spec parsing -- *)

let test_spec_roundtrip () =
  List.iter
    (fun s ->
      match Algo.Cost.Spec.of_string s with
      | Ok spec ->
        Alcotest.(check string) ("roundtrip " ^ s) s (spec_name spec)
      | Error e -> Alcotest.failf "of_string %S: %s" s e)
    [ "area"; "depth"; "edges"; "activity"; "lut"; "lut:4" ];
  (match Algo.Cost.Spec.of_string "lut:1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "lut:1 must be rejected");
  match Algo.Cost.Spec.of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus must be rejected"

let test_weights_file () =
  let path = Filename.temp_file "genlog_weights" ".txt" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "# comment\nand 3\nxor 2\nmaj 5\n\nlut 4\ndefault 7\n");
  (match Algo.Cost.Spec.of_string ("weights:" ^ path) with
  | Ok (Algo.Cost.Spec.Weights w) ->
    Alcotest.(check int) "and" 3 w.Algo.Cost.Spec.w_and;
    Alcotest.(check int) "xor" 2 w.Algo.Cost.Spec.w_xor;
    Alcotest.(check int) "maj" 5 w.Algo.Cost.Spec.w_maj;
    Alcotest.(check int) "lut" 4 w.Algo.Cost.Spec.w_lut;
    Alcotest.(check int) "default" 7 w.Algo.Cost.Spec.w_default
  | Ok _ -> Alcotest.fail "expected a Weights spec"
  | Error e -> Alcotest.failf "weights file: %s" e);
  Out_channel.with_open_text path (fun oc -> output_string oc "bogus 3\n");
  (match Algo.Cost.Spec.of_string ("weights:" ^ path) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown kind must be rejected");
  Sys.remove path;
  match Algo.Cost.Spec.of_string "weights:/nonexistent/w.txt" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing weights file must be rejected"

(* -- engine sanity: area semantics match the seed protocol -- *)

let test_engine_area () =
  let net = G.generate ~seed:7 ~num_pis:5 ~num_gates:30 ~num_pos:3 () in
  let area = Algo.Cost.Spec.Area in
  Alcotest.(check bool) "additive" true (Algo.Cost.Spec.is_additive area);
  Alcotest.(check int) "eval = num_gates" (Aig.num_gates net) (Co.eval area net);
  (* freed of a live gate = MFFC size *)
  let n =
    List.find (fun n -> Aig.ref_count net n > 0) (List.rev (T.order net))
  in
  let mffc = List.length (Mf.collect net n) in
  Alcotest.(check int) "freed = mffc" mffc (Co.freed area net n);
  (* accept: strict gain, or zero gain only in zero-gain mode *)
  Alcotest.(check bool) "gain 1 accepted" true (Co.accept 1);
  Alcotest.(check bool) "gain 0 rejected" false (Co.accept 0);
  Alcotest.(check bool) "gain 0 zero-gain ok" true (Co.accept ~zero_gain:true 0);
  Alcotest.(check bool) "gain -1 never" false (Co.accept ~zero_gain:true (-1))

let test_network_cost_area_is_seed_order () =
  let a = G.generate ~seed:11 ~num_pis:5 ~num_gates:30 ~num_pos:3 () in
  let module Dp = Algo.Depth.Make (Aig) in
  let o, g, d = Co.network_cost Algo.Cost.Spec.Area a in
  Alcotest.(check int) "objective = gates" (Aig.num_gates a) o;
  Alcotest.(check int) "gates" (Aig.num_gates a) g;
  Alcotest.(check int) "depth" (Dp.depth a) d

(* Networks on which rewriting once claimed more gain than it realized:
   the winning candidate resolved to an existing node inside the MFFC it
   was priced as freeing.  The specialized AIG rewriter had the same
   fault (gain 2 against 1 on seed 143, 6 against 4 on seed 201). *)
let test_gain_bound_regressions () =
  let check name spec seed pass =
    let net = G.generate ~seed ~num_pis:5 ~num_gates:40 ~num_pos:3 () in
    let before = Co.eval spec net in
    let gain = pass net in
    let after = Co.eval spec net in
    Alcotest.(check bool)
      (Printf.sprintf "%s %s seed %d: gain %d <= delta %d" name
         (spec_name spec) seed gain (before - after))
      true
      (gain >= 0 && before - after >= gain)
  in
  List.iter
    (fun (spec, seed) ->
      check "rw" spec seed (fun net ->
          Rw.run net ~db:(Lazy.force db) ~cost:spec ()))
    [
      (Algo.Cost.Spec.Area, 114);
      (Algo.Cost.Spec.Area, 143);
      (Algo.Cost.Spec.Edges, 183);
      (Algo.Cost.Spec.Activity, 60);
      (Algo.Cost.Spec.Activity, 101);
    ];
  List.iter
    (fun seed ->
      check "Rewrite_aig" Algo.Cost.Spec.Area seed (fun net ->
          Algo.Rewrite_aig.run net ~db:(Lazy.force db) ()))
    [ 143; 201 ]

(* The depth objective is the network depth: a dangling gate deeper than
   every output delays none of them. *)
let test_depth_ignores_dangling () =
  let net = Aig.create () in
  let a = Aig.create_pi net and b = Aig.create_pi net and c = Aig.create_pi net in
  let ab = Aig.create_and net a b in
  Aig.create_po net ab;
  let abc = Aig.create_and net ab c in
  ignore (Aig.create_and net abc (Aig.complement a));
  let module Dp = Algo.Depth.Make (Aig) in
  Alcotest.(check int) "network depth" 1 (Dp.depth net);
  Alcotest.(check int) "eval depth = network depth" (Dp.depth net)
    (Co.eval Algo.Cost.Spec.Depth net);
  let _, _, d = Co.network_cost Algo.Cost.Spec.Depth net in
  Alcotest.(check int) "network_cost depth" 1 d

(* -- the replacement step, one case per outcome, on a hand-built AIG --

   The fixture computes (a & c) | (b & c); its root [n] has a three-gate
   MFFC.  A candidate that is not substituted must leave the network as
   it was: the same gates, intact, and every node the build created dead
   again. *)

let replace_fixture () =
  let net = Aig.create () in
  let a = Aig.create_pi net and b = Aig.create_pi net in
  let c = Aig.create_pi net in
  let f = Aig.create_or net (Aig.create_and net a c) (Aig.create_and net b c) in
  Aig.create_po net f;
  (net, Aig.node_of_signal f, (a, b, c))

let test_replace_outcomes () =
  let area = Algo.Cost.Spec.Area in
  let outcome = function
    | Co.No_candidate -> "no candidate"
    | Co.Cycle -> "cycle"
    | Co.Rejected g -> Printf.sprintf "rejected %d" g
    | Co.Replaced g -> Printf.sprintf "replaced %d" g
  in
  (* run [build] through [replace] on a fresh fixture; returns the
     network, [n], the watermark and the outcome *)
  let run build =
    let net, n, pis = replace_fixture () in
    let mark = Aig.size net in
    let r = Co.replace area net ~leaves:(Aig.pis net) n (build net n pis) in
    (net, n, mark, outcome r)
  in
  let unchanged name (net, _, mark, _) =
    Alcotest.(check int) (name ^ ": gates") 3 (Aig.num_gates net);
    Alcotest.(check (list string))
      (name ^ ": integrity") [] (Aig.check_integrity net);
    for i = mark to Aig.size net - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "%s: candidate node %d dead" name i)
        true (Aig.is_dead net i)
    done
  in
  let (_, _, _, r) as none = run (fun _ _ _ () -> None) in
  Alcotest.(check string) "no candidate" "no candidate" r;
  unchanged "no candidate" none;
  (* the candidate reads [n] itself *)
  let (_, _, _, r) as cycle =
    run (fun net n (a, _, _) () ->
        Some (Aig.create_and net (Aig.signal_of_node n) a))
  in
  Alcotest.(check string) "cycle" "cycle" r;
  unchanged "cycle" cycle;
  (* four new gates for a three-gate MFFC *)
  let (_, _, _, r) as rejected =
    run (fun net _ (a, b, c) () ->
        Some (Aig.create_and net (Aig.create_xor net a b) c))
  in
  Alcotest.(check string) "rejected" "rejected -1" r;
  unchanged "rejected" rejected;
  (* c & (a | b): two new gates for the three-gate MFFC; the output
     reads [n] complemented, so [n] is replaced by the complement *)
  let net, n, _, r =
    run (fun net _ (a, b, c) () ->
        Some (Aig.complement (Aig.create_and net c (Aig.create_or net a b))))
  in
  Alcotest.(check string) "replaced" "replaced 1" r;
  Alcotest.(check bool) "n dead" true (Aig.is_dead net n);
  Alcotest.(check int) "gates" 2 (Aig.num_gates net);
  Alcotest.(check (list string)) "integrity" [] (Aig.check_integrity net);
  let reference, _, _ = replace_fixture () in
  match Cec.check reference net with
  | Algo.Cec.Equivalent -> ()
  | Algo.Cec.Counterexample _ | Algo.Cec.Unknown ->
    Alcotest.fail "replaced network differs from the reference"

let suite =
  List.map Seed.to_alcotest
    (eval_is_fold_props @ eval_is_fold_mig_props
   @ freed_is_mffc_mass_props @ gain_holds_root_props
   @ added_is_eval_delta_props @ telescoping_props
   @ [ resub_telescoping; depth_never_worsens ])
  @ [
      Alcotest.test_case "spec roundtrip" `Quick test_spec_roundtrip;
      Alcotest.test_case "weights file" `Quick test_weights_file;
      Alcotest.test_case "engine area semantics" `Quick test_engine_area;
      Alcotest.test_case "replace: one case per outcome" `Quick
        test_replace_outcomes;
      Alcotest.test_case "network cost (area = seed order)" `Quick
        test_network_cost_area_is_seed_order;
      Alcotest.test_case "rewrite gain bound regressions" `Quick
        test_gain_bound_regressions;
      Alcotest.test_case "depth eval ignores dangling gates" `Quick
        test_depth_ignores_dangling;
    ]
