(* Cost-axiom conformance suite for the cost-generic optimization layer
   (Algo.Cost): every built-in COST instance must satisfy the laws the
   [Network.Intf.COST] signature documents —

   - [add zero x = x] and [add x zero = x]            (identity)
   - [add (add a b) c = add a (add b c)]              (associativity)
   - [add a b = add b a]                              (commutativity)
   - [compare] is a total order consistent with [to_int]
   - [eval net] = [add]-fold of [of_node net] over live gates
   - gain telescoping (additive objectives): [freed] is exactly the MFFC
     objective mass, [added] is exactly the eval delta of a build, and a
     pass's accumulated gain lower-bounds the realized network delta

   The monoid laws run under QCheck on random values; the network-level
   laws run on random networks over random seeds. *)

open Network

module Co = Algo.Cost.Make (Aig)
module CoM = Algo.Cost.Make (Mig)
module G = Gen.Make (Aig)
module Gm = Gen.Make (Mig)
module Rw = Algo.Rewrite.Make (Aig)
module Rf = Algo.Refactor.Make (Aig)
module T = Algo.Topo.Make (Aig)

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

(* -- monoid + order laws, one QCheck property per instance -- *)

let monoid_props =
  List.concat_map
    (fun spec ->
      let module I = (val Co.instance spec) in
      let name = spec_name spec in
      [
        QCheck.Test.make
          ~name:(Printf.sprintf "%s: zero identity" name)
          ~count:200 QCheck.small_nat
          (fun x -> I.add I.zero x = x && I.add x I.zero = x);
        QCheck.Test.make
          ~name:(Printf.sprintf "%s: add assoc + comm" name)
          ~count:200
          QCheck.(triple small_nat small_nat small_nat)
          (fun (a, b, c) ->
            I.add (I.add a b) c = I.add a (I.add b c) && I.add a b = I.add b a);
        QCheck.Test.make
          ~name:(Printf.sprintf "%s: compare total order" name)
          ~count:200
          QCheck.(triple small_int small_int small_int)
          (fun (a, b, c) ->
            (* antisymmetry, totality, transitivity on a sample, and
               agreement with the to_int embedding *)
            let sgn x = compare x 0 in
            sgn (I.compare a b) = -sgn (I.compare b a)
            && ((not (I.compare a b <= 0 && I.compare b c <= 0))
               || I.compare a c <= 0)
            && sgn (I.compare a b) = sgn (Int.compare (I.to_int a) (I.to_int b)));
      ])
    specs

(* -- eval = fold of of_node over live gates, on random networks -- *)

let fold_eval (type a) (module N : Intf.NETWORK with type t = a) ~add ~zero
    ~of_node (net : a) =
  let acc = ref zero in
  N.foreach_gate net (fun n -> if not (N.is_dead net n) then acc := add !acc (of_node net n));
  !acc

let eval_is_fold_props =
  List.map
    (fun spec ->
      let module I = (val Co.instance spec) in
      QCheck.Test.make
        ~name:(Printf.sprintf "%s: eval = fold of_node (aig)" (spec_name spec))
        ~count:20
        QCheck.(int_bound 10_000)
        (fun seed ->
          let net =
            G.generate ~seed:(seed + 1) ~num_pis:5 ~num_gates:30 ~num_pos:3 ()
          in
          I.eval net
          = fold_eval (module Aig) ~add:I.add ~zero:I.zero ~of_node:I.of_node
              net))
    specs

let eval_is_fold_mig_props =
  List.map
    (fun spec ->
      let module I = (val CoM.instance spec) in
      QCheck.Test.make
        ~name:(Printf.sprintf "%s: eval = fold of_node (mig)" (spec_name spec))
        ~count:10
        QCheck.(int_bound 10_000)
        (fun seed ->
          let net =
            Gm.generate ~use_maj:true ~seed:(seed + 1) ~num_pis:5 ~num_gates:30
              ~num_pos:3 ()
          in
          I.eval net
          = fold_eval (module Mig) ~add:I.add ~zero:I.zero ~of_node:I.of_node
              net))
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

(* One property per additive spec: [check net eng mass n] holds for every
   live gate [n] of random networks, [mass] summing node prices. *)
let per_gate_props ~name check =
  List.map
    (fun spec ->
      let module I = (val Co.instance spec) in
      QCheck.Test.make
        ~name:(Printf.sprintf "%s: %s" (spec_name spec) name)
        ~count:15
        QCheck.(int_bound 10_000)
        (fun seed ->
          let net =
            G.generate ~seed:(seed + 1) ~num_pis:5 ~num_gates:30 ~num_pos:3 ()
          in
          let eng = Co.engine spec in
          let mass =
            List.fold_left (fun acc m -> I.add acc (I.of_node net m)) I.zero
          in
          let ok = ref true in
          Aig.foreach_gate net (fun n ->
              if
                (not (Aig.is_dead net n))
                && Aig.ref_count net n > 0
                && not (check net eng mass n)
              then ok := false);
          !ok))
    additive_specs

let freed_is_mffc_mass_props =
  per_gate_props ~name:"freed = MFFC mass" (fun net eng mass n ->
      eng.Co.freed net n = mass (Mf.collect net n))

(* [gain ~root:m n] for an existing node [m] of [n]'s MFFC, with nothing
   built above the mark: holding [m] keeps alive [m] and every MFFC node
   in its fanin cone, so the gain is the MFFC mass minus the mass of that
   kept part.  (The kept part is [m]'s own MFFC only when no other MFFC
   node shares [m]'s fanin cone.) *)
let gain_holds_root_props =
  per_gate_props ~name:"gain holding an MFFC node" (fun net eng mass n ->
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
          || Co.gain eng net ~mark:(eng.Co.mark net) ~root:m n
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
          let eng = Co.engine spec in
          let before = eng.Co.eval net in
          let mark = eng.Co.mark net in
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
            eng.Co.added net ~mark ~root:(Aig.node_of_signal !root)
          in
          eng.Co.eval net - before = added))
    additive_specs

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
          let net =
            G.generate ~seed:(seed + 1) ~num_pis:5 ~num_gates:40 ~num_pos:3 ()
          in
          let before = Co.eval spec net in
          let gain = Rw.run net ~db:(Lazy.force db) ~cost:spec () in
          let after = Co.eval spec net in
          gain >= 0 && before - after >= gain))
    additive_specs

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
  let eng = Co.engine Algo.Cost.Spec.Area in
  Alcotest.(check bool) "additive" true eng.Co.additive;
  Alcotest.(check int) "eval = num_gates" (Aig.num_gates net) (eng.Co.eval net);
  (* freed of a live gate = MFFC size = 1 + recursive_deref *)
  let n =
    List.find (fun n -> Aig.ref_count net n > 0) (List.rev (T.order net))
  in
  let mffc = 1 + Aig.recursive_deref net n in
  ignore (Aig.recursive_ref net n);
  Alcotest.(check int) "freed = mffc" mffc (eng.Co.freed net n);
  (* accept: strict gain, or zero gain only in zero-gain mode *)
  Alcotest.(check bool) "gain 1 accepted" true (Co.accept eng 1);
  Alcotest.(check bool) "gain 0 rejected" false (Co.accept eng 0);
  Alcotest.(check bool) "gain 0 zero-gain ok" true
    (Co.accept ~zero_gain:true eng 0);
  Alcotest.(check bool) "gain -1 never" false (Co.accept ~zero_gain:true eng (-1))

let test_network_cost_area_is_seed_order () =
  let a = G.generate ~seed:11 ~num_pis:5 ~num_gates:30 ~num_pos:3 () in
  let eng = Co.engine Algo.Cost.Spec.Area in
  let module Dp = Algo.Depth.Make (Aig) in
  let o, g, d = Co.network_cost eng a in
  Alcotest.(check int) "objective = gates" (Aig.num_gates a) o;
  Alcotest.(check int) "gates" (Aig.num_gates a) g;
  Alcotest.(check int) "depth" (Dp.depth a) d

(* Networks on which rewriting once claimed more gain than it realized:
   the winning candidate resolved to an existing node inside the MFFC it
   was priced as freeing. *)
let test_gain_bound_regressions () =
  List.iter
    (fun (spec, seed) ->
      let net =
        G.generate ~seed ~num_pis:5 ~num_gates:40 ~num_pos:3 ()
      in
      let before = Co.eval spec net in
      let gain = Rw.run net ~db:(Lazy.force db) ~cost:spec () in
      let after = Co.eval spec net in
      Alcotest.(check bool)
        (Printf.sprintf "%s seed %d: gain %d <= delta %d" (spec_name spec)
           seed gain (before - after))
        true
        (gain >= 0 && before - after >= gain))
    [
      (Algo.Cost.Spec.Area, 114);
      (Algo.Cost.Spec.Area, 143);
      (Algo.Cost.Spec.Edges, 183);
      (Algo.Cost.Spec.Activity, 60);
      (Algo.Cost.Spec.Activity, 101);
    ]

let suite =
  List.map Seed.to_alcotest
    (monoid_props @ eval_is_fold_props @ eval_is_fold_mig_props
   @ freed_is_mffc_mass_props @ gain_holds_root_props
   @ added_is_eval_delta_props @ telescoping_props
   @ [ depth_never_worsens ])
  @ [
      Alcotest.test_case "spec roundtrip" `Quick test_spec_roundtrip;
      Alcotest.test_case "weights file" `Quick test_weights_file;
      Alcotest.test_case "engine area semantics" `Quick test_engine_area;
      Alcotest.test_case "network cost (area = seed order)" `Quick
        test_network_cost_area_is_seed_order;
      Alcotest.test_case "rewrite gain bound regressions" `Quick
        test_gain_bound_regressions;
    ]
