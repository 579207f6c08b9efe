(* Tests for the network substrate: construction, normalization rules,
   structural hashing, reference counting, substitution. *)

open Network
module Mffc_aig = Algo.Mffc.Make (Aig)

let test_aig_basic () =
  let t = Aig.create () in
  let a = Aig.create_pi t and b = Aig.create_pi t in
  let f = Aig.create_and t a b in
  Aig.create_po t f;
  Alcotest.(check int) "two PIs" 2 (Aig.num_pis t);
  Alcotest.(check int) "one PO" 1 (Aig.num_pos t);
  Alcotest.(check int) "one gate" 1 (Aig.num_gates t);
  Alcotest.(check int) "size = const + 2 pis + 1 gate" 4 (Aig.size t)

let test_aig_simplifications () =
  let t = Aig.create () in
  let a = Aig.create_pi t and b = Aig.create_pi t in
  Alcotest.(check int) "a & a = a" a (Aig.create_and t a a);
  Alcotest.(check int) "a & !a = 0" (Aig.constant false) (Aig.create_and t a (Aig.complement a));
  Alcotest.(check int) "a & 1 = a" a (Aig.create_and t a (Aig.constant true));
  Alcotest.(check int) "a & 0 = 0" (Aig.constant false) (Aig.create_and t a (Aig.constant false));
  let f1 = Aig.create_and t a b in
  let f2 = Aig.create_and t b a in
  Alcotest.(check int) "strash: ab = ba" f1 f2;
  Alcotest.(check int) "still one gate" 1 (Aig.num_gates t)

let test_aig_xor_maj () =
  let t = Aig.create () in
  let a = Aig.create_pi t and b = Aig.create_pi t and c = Aig.create_pi t in
  ignore (Aig.create_xor t a b);
  Alcotest.(check int) "xor = 3 ands" 3 (Aig.num_gates t);
  let t2 = Aig.create () in
  let a = Aig.create_pi t2 and b = Aig.create_pi t2 and c2 = Aig.create_pi t2 in
  ignore c;
  ignore (Aig.create_maj t2 a b c2);
  Alcotest.(check int) "maj = 4 ands" 4 (Aig.num_gates t2)

let test_xag_xor_normalization () =
  let t = Xag.create () in
  let a = Xag.create_pi t and b = Xag.create_pi t in
  let f = Xag.create_xor t a b in
  let g = Xag.create_xor t (Xag.complement a) b in
  Alcotest.(check int) "xor(!a,b) = !xor(a,b)" (Xag.complement f) g;
  Alcotest.(check int) "one gate" 1 (Xag.num_gates t);
  Alcotest.(check int) "xor(a,a) = 0" (Xag.constant false) (Xag.create_xor t a a);
  Alcotest.(check int) "xor(a,!a) = 1" (Xag.constant true)
    (Xag.create_xor t a (Xag.complement a));
  Alcotest.(check int) "xor(a,0) = a" a (Xag.create_xor t a (Xag.constant false));
  Alcotest.(check int) "xor(a,1) = !a" (Xag.complement a)
    (Xag.create_xor t a (Xag.constant true))

let test_mig_normalization () =
  let t = Mig.create () in
  let a = Mig.create_pi t and b = Mig.create_pi t and c = Mig.create_pi t in
  Alcotest.(check int) "maj(a,a,b) = a" a (Mig.create_maj t a a b);
  Alcotest.(check int) "maj(a,!a,c) = c" c (Mig.create_maj t a (Mig.complement a) c);
  let f = Mig.create_maj t a b c in
  let g = Mig.create_maj t c a b in
  Alcotest.(check int) "strash invariant under permutation" f g;
  (* self-duality: maj(!a,!b,!c) = !maj(a,b,c) without a new node *)
  let h = Mig.create_maj t (Mig.complement a) (Mig.complement b) (Mig.complement c) in
  Alcotest.(check int) "self-dual complement" (Mig.complement f) h;
  Alcotest.(check int) "one gate" 1 (Mig.num_gates t)

let test_mig_and_or () =
  let t = Mig.create () in
  let a = Mig.create_pi t and b = Mig.create_pi t in
  let f = Mig.create_and t a b in
  Alcotest.(check int) "and = 1 maj" 1 (Mig.num_gates t);
  let g = Mig.create_or t a b in
  Alcotest.(check int) "or = second maj" 2 (Mig.num_gates t);
  Alcotest.(check bool) "distinct" true (f <> g)

let test_refcounts () =
  let t = Aig.create () in
  let a = Aig.create_pi t and b = Aig.create_pi t and c = Aig.create_pi t in
  let ab = Aig.create_and t a b in
  let abc = Aig.create_and t ab c in
  Aig.create_po t abc;
  let n_ab = Aig.node_of_signal ab and n_abc = Aig.node_of_signal abc in
  Alcotest.(check int) "ab referenced once" 1 (Aig.ref_count t n_ab);
  Alcotest.(check int) "abc referenced by PO" 1 (Aig.ref_count t n_abc);
  (* the MFFC walk measures the cone and restores every count *)
  Alcotest.(check int) "MFFC of abc is abc and ab" 2 (Mffc_aig.size t n_abc);
  Alcotest.(check int) "ref count restored" 1 (Aig.ref_count t n_ab);
  Alcotest.(check int) "root ref count restored" 1 (Aig.ref_count t n_abc)

let test_substitute_merges () =
  let t = Aig.create () in
  let a = Aig.create_pi t and b = Aig.create_pi t and c = Aig.create_pi t in
  let ab = Aig.create_and t a b in
  let f = Aig.create_and t ab c in
  (* a second cone that becomes structurally equal after substitution *)
  let g = Aig.create_and t a c in
  Aig.create_po t f;
  Aig.create_po t g;
  Alcotest.(check int) "3 gates" 3 (Aig.num_gates t);
  (* replace ab by a: f becomes and(a, c) which must merge with g *)
  Aig.substitute_node t (Aig.node_of_signal ab) a;
  Alcotest.(check int) "merged to 1 gate" 1 (Aig.num_gates t);
  Alcotest.(check int) "po0 = po1 after merge" (Aig.po_at t 0) (Aig.po_at t 1);
  Alcotest.(check bool) "old node dead" true (Aig.is_dead t (Aig.node_of_signal ab));
  Alcotest.(check bool) "f node dead" true (Aig.is_dead t (Aig.node_of_signal f))

let test_substitute_cascade_simplify () =
  let t = Aig.create () in
  let a = Aig.create_pi t and b = Aig.create_pi t in
  let ab = Aig.create_and t a b in
  let f = Aig.create_and t ab (Aig.complement a) in
  Aig.create_po t f;
  (* substituting ab -> a turns f into and(a, !a) = const0 *)
  Aig.substitute_node t (Aig.node_of_signal ab) a;
  Alcotest.(check int) "po is constant false" (Aig.constant false) (Aig.po_at t 0);
  Alcotest.(check int) "no gates remain" 0 (Aig.num_gates t)

let test_substitute_po_complement () =
  let t = Aig.create () in
  let a = Aig.create_pi t and b = Aig.create_pi t and c = Aig.create_pi t in
  let ab = Aig.create_and t a b in
  Aig.create_po t (Aig.complement ab);
  Aig.substitute_node t (Aig.node_of_signal ab) c;
  Alcotest.(check int) "complement preserved" (Aig.complement c) (Aig.po_at t 0)

let test_klut_folding () =
  let open Kitty in
  let t = Klut.create () in
  let a = Klut.create_pi t and b = Klut.create_pi t in
  (* LUT with a complemented input folds the complement into the table *)
  let and_tt = Tt.(nth_var 2 0 &: nth_var 2 1) in
  let f = Klut.create_lut t [| Klut.complement a; b |] and_tt in
  let g = Klut.create_lut t [| a; b |] Tt.(~:(nth_var 2 0) &: nth_var 2 1) in
  Alcotest.(check int) "complement folded" g f;
  Alcotest.(check int) "one gate" 1 (Klut.num_gates t);
  (* projection LUT simplifies to a signal *)
  let p = Klut.create_lut t [| a; b |] (Tt.nth_var 2 1) in
  Alcotest.(check int) "projection collapses" b p;
  (* constant input gets cofactored away *)
  let q = Klut.create_lut t [| a; Klut.constant true |] and_tt in
  Alcotest.(check int) "cofactored to projection" a q

let test_klut_dedup_fanin () =
  let open Kitty in
  let t = Klut.create () in
  let a = Klut.create_pi t and b = Klut.create_pi t in
  (* lut(a,a,b) with tt = x0 & x1 & x2 must become and(a,b) *)
  let tt3 = Tt.(nth_var 3 0 &: nth_var 3 1 &: nth_var 3 2) in
  let f = Klut.create_lut t [| a; a; b |] tt3 in
  let g = Klut.create_and t a b in
  Alcotest.(check int) "duplicate fanin merged" g f

let test_convert_aig_to_mig () =
  let t = Aig.create () in
  let a = Aig.create_pi t and b = Aig.create_pi t and c = Aig.create_pi t in
  let f = Aig.create_maj t a b c in
  Aig.create_po t f;
  let module C = Convert.Make (Aig) (Mig) in
  let m = C.convert t in
  Alcotest.(check int) "same PIs" 3 (Mig.num_pis m);
  Alcotest.(check int) "same POs" 1 (Mig.num_pos m)

let test_cleanup_removes_dangling () =
  let t = Aig.create () in
  let a = Aig.create_pi t and b = Aig.create_pi t in
  let f = Aig.create_and t a b in
  let _dangling = Aig.create_and t a (Aig.complement b) in
  Aig.create_po t f;
  let module C = Convert.Cleanup (Aig) in
  let t' = C.cleanup t in
  Alcotest.(check int) "dangling dropped" 1 (Aig.num_gates t')

let suite =
  [
    Alcotest.test_case "aig basic" `Quick test_aig_basic;
    Alcotest.test_case "aig simplifications" `Quick test_aig_simplifications;
    Alcotest.test_case "aig xor/maj constructors" `Quick test_aig_xor_maj;
    Alcotest.test_case "xag xor normalization" `Quick test_xag_xor_normalization;
    Alcotest.test_case "mig normalization" `Quick test_mig_normalization;
    Alcotest.test_case "mig and/or" `Quick test_mig_and_or;
    Alcotest.test_case "reference counting" `Quick test_refcounts;
    Alcotest.test_case "substitute merges duplicates" `Quick test_substitute_merges;
    Alcotest.test_case "substitute cascades simplification" `Quick test_substitute_cascade_simplify;
    Alcotest.test_case "substitute preserves PO complement" `Quick test_substitute_po_complement;
    Alcotest.test_case "klut folding" `Quick test_klut_folding;
    Alcotest.test_case "klut duplicate fanin" `Quick test_klut_dedup_fanin;
    Alcotest.test_case "convert aig to mig" `Quick test_convert_aig_to_mig;
    Alcotest.test_case "cleanup removes dangling" `Quick test_cleanup_removes_dangling;
  ]

(* -- additional coverage: XMG, n-ary builders, conversions, Build -- *)

(* random networks come from the shared test/gen.ml generator *)

let test_xmg_basics () =
  let t = Xmg.create () in
  let a = Xmg.create_pi t and b = Xmg.create_pi t and c = Xmg.create_pi t in
  let m = Xmg.create_maj t a b c in
  let x = Xmg.create_xor t a b in
  Alcotest.(check int) "two gates" 2 (Xmg.num_gates t);
  Alcotest.(check bool) "maj kind" true
    (Kind.equal (Xmg.gate_kind t (Xmg.node_of_signal m)) Kind.Maj);
  Alcotest.(check bool) "xor kind" true
    (Kind.equal (Xmg.gate_kind t (Xmg.node_of_signal x)) Kind.Xor);
  (* normalization carried over from MIG and XAG *)
  Alcotest.(check int) "maj self-dual"
    (Xmg.complement m)
    (Xmg.create_maj t (Xmg.complement a) (Xmg.complement b) (Xmg.complement c));
  Alcotest.(check int) "xor complement pulled" (Xmg.complement x)
    (Xmg.create_xor t (Xmg.complement a) b)

let test_nary_builders () =
  let t = Aig.create () in
  let inputs = List.init 8 (fun _ -> Aig.create_pi t) in
  let f = Aig.create_nary_and t inputs in
  Aig.create_po t f;
  let module D = Algo.Depth.Make (Aig) in
  (* balanced reduction: 8 inputs -> depth 3, 7 gates *)
  Alcotest.(check int) "7 gates" 7 (Aig.num_gates t);
  Alcotest.(check int) "depth 3" 3 (D.depth t);
  Alcotest.(check int) "empty and = true" (Aig.constant true) (Aig.create_nary_and t []);
  Alcotest.(check int) "empty or = false" (Aig.constant false) (Aig.create_nary_or t []);
  Alcotest.(check int) "empty xor = false" (Aig.constant false) (Aig.create_nary_xor t [])

let test_signal_module () =
  let s = Signal.of_node 21 in
  Alcotest.(check int) "node" 21 (Signal.node s);
  Alcotest.(check bool) "not complemented" false (Signal.is_complemented s);
  let c = Signal.complement s in
  Alcotest.(check bool) "complemented" true (Signal.is_complemented c);
  Alcotest.(check int) "same node" 21 (Signal.node c);
  Alcotest.(check int) "complement involutive" s (Signal.complement c);
  Alcotest.(check int) "complement_if false" s (Signal.complement_if false s);
  Alcotest.(check bool) "const recognized" true (Signal.is_constant (Signal.constant true))

let test_kind_functions () =
  let open Kitty in
  Alcotest.(check bool) "and2" true
    (Tt.equal (Kind.function_of Kind.And 2) Tt.(nth_var 2 0 &: nth_var 2 1));
  Alcotest.(check bool) "xor2" true
    (Tt.equal (Kind.function_of Kind.Xor 2) Tt.(nth_var 2 0 ^: nth_var 2 1));
  Alcotest.(check bool) "maj3" true
    (Tt.equal (Kind.function_of Kind.Maj 3) (Tt.of_hex 3 "e8"))

let test_set_po_refcount () =
  let t = Aig.create () in
  let a = Aig.create_pi t and b = Aig.create_pi t in
  let f = Aig.create_and t a b in
  Aig.create_po t f;
  Alcotest.(check int) "ref 1" 1 (Aig.ref_count t (Aig.node_of_signal f));
  (* retarget the PO: the and-gate dies *)
  Aig.set_po t 0 a;
  Alcotest.(check bool) "gate dead" true (Aig.is_dead t (Aig.node_of_signal f));
  Alcotest.(check int) "no gates" 0 (Aig.num_gates t);
  Alcotest.(check (list string)) "integrity" [] (Aig.check_integrity t)

let test_take_out_if_dead () =
  let t = Aig.create () in
  let a = Aig.create_pi t and b = Aig.create_pi t in
  let f = Aig.create_and t a b in
  let g = Aig.create_and t f (Aig.complement a) in
  (* nothing references g: taking it out cascades into f *)
  Aig.take_out_if_dead t (Aig.node_of_signal g);
  Alcotest.(check int) "all gone" 0 (Aig.num_gates t);
  (* taking out a referenced node is a no-op *)
  let f2 = Aig.create_and t a b in
  Aig.create_po t f2;
  Aig.take_out_if_dead t (Aig.node_of_signal f2);
  Alcotest.(check int) "still there" 1 (Aig.num_gates t)

let test_conversion_roundtrips () =
  let module R = Gen.Make (Aig) in
  let t = R.generate ~seed:(Seed.get 77) ~num_pis:5 ~num_gates:40 ~num_pos:3 () in
  let module C = Algo.Cec.Make (Aig) (Aig) in
  let check name back =
    match C.check t back with
    | Algo.Cec.Equivalent -> ()
    | Algo.Cec.Counterexample _ | Algo.Cec.Unknown ->
      Alcotest.fail (name ^ " roundtrip not equivalent")
  in
  let module Am = Convert.Make (Aig) (Mig) in
  let module Ma = Convert.Make (Mig) (Aig) in
  check "aig->mig->aig" (Ma.convert (Am.convert t));
  let module Ax = Convert.Make (Aig) (Xag) in
  let module Xa = Convert.Make (Xag) (Aig) in
  check "aig->xag->aig" (Xa.convert (Ax.convert t));
  let module Ag = Convert.Make (Aig) (Xmg) in
  let module Ga = Convert.Make (Xmg) (Aig) in
  check "aig->xmg->aig" (Ga.convert (Ag.convert t));
  let module Ak = Convert.Make (Aig) (Klut) in
  let module Ka = Convert.Make (Klut) (Aig) in
  check "aig->klut->aig" (Ka.convert (Ak.convert t))

let test_build_of_tt () =
  (* Build.of_tt realizes arbitrary truth tables through the generic
     constructors; verify by exhaustive simulation in several reps *)
  let open Kitty in
  let rng = Seed.state 23 in
  for _ = 1 to 25 do
    let v = Random.State.int rng 65536 in
    let f = Tt.of_int64 4 (Int64.of_int v) in
    let check_rep name (module N : Intf.NETWORK) =
      let module B = Build.Make (N) in
      let module S = Algo.Simulate.Make (N) in
      let t = N.create () in
      let inputs = Array.init 4 (fun _ -> N.create_pi t) in
      let s = B.of_tt t inputs f in
      N.create_po t s;
      let out = (S.output_functions t).(0) in
      if not (Tt.equal out f) then
        Alcotest.failf "%s: of_tt wrong for %s" name (Tt.to_hex f)
    in
    check_rep "aig" (module Aig);
    check_rep "mig" (module Mig);
    check_rep "xmg" (module Xmg)
  done

let test_pi_index () =
  let t = Aig.create () in
  let pis = Array.init 5 (fun _ -> Aig.create_pi t) in
  Array.iteri
    (fun i s ->
      Alcotest.(check int) "pi index" i (Aig.pi_index t (Aig.node_of_signal s)))
    pis

let test_integrity_on_random () =
  let module R = Gen.Make (Mig) in
  let t =
    R.generate ~use_maj:true ~seed:(Seed.get 5) ~num_pis:6 ~num_gates:80
      ~num_pos:5 ()
  in
  Alcotest.(check (list string)) "mig integrity" [] (Mig.check_integrity t)

(* -- structural hashing against a reference model --

   Random [create_node] / [substitute_node] / [take_out_if_dead] / PO
   sequences on a network started at capacity 4 (so node storage grows
   and the hash table rehashes), checked after every step against a
   [Hashtbl] from each live gate's stored (kind, fanins) key to the gate:
   no two live gates share a key, a [create_node] that allocates a gate
   only does so when no live gate has its key, one that allocates none
   and returns a gate returns the gate holding that key, and
   [check_integrity] (strash chains included) is empty. *)

module Churn (N : Intf.NETWORK) = struct
  let key t n =
    let table = match N.gate_kind t n with Kind.Lut tt -> Kitty.Tt.to_hex tt | _ -> "" in
    (Kind.name (N.gate_kind t n), table, Array.to_list (N.fanin t n))

  (* the model: every live gate under its stored key, and the first two
     live gates found sharing a key, if any *)
  let model t =
    let m = Hashtbl.create 64 and dup = ref None in
    List.iter
      (fun n ->
        match Hashtbl.find_opt m (key t n) with
        | Some d -> dup := Some (d, n)
        | None -> Hashtbl.replace m (key t n) n)
      (N.gates t);
    (m, !dup)

  (* nodes in the transitive fanout of [n], [n] included *)
  let tfo t n =
    let seen = Hashtbl.create 16 in
    let rec go n =
      if not (Hashtbl.mem seen n) then begin
        Hashtbl.replace seen n ();
        List.iter go (N.fanout t n)
      end
    in
    go n;
    seen

  (* [None] when every step holds, else the first violation *)
  let run ~(gate : Random.State.t -> N.t -> (unit -> N.signal) -> N.signal) ~seed ~steps =
    let rng = Random.State.make [| seed |] in
    let t = N.create ~initial_capacity:4 () in
    let pis = Array.init 4 (fun _ -> N.create_pi t) in
    let nodes () =
      Array.append (Array.map N.node_of_signal pis) (Array.of_list (N.gates t))
    in
    let pick () =
      let ns = nodes () in
      N.complement_if (Random.State.bool rng)
        (N.signal_of_node ns.(Random.State.int rng (Array.length ns)))
    in
    let failure = ref None in
    let step = ref 0 in
    let fail fmt =
      Printf.ksprintf (fun msg -> if !failure = None then failure := Some msg) fmt
    in
    while !failure = None && !step < steps do
      incr step;
      let m, _ = model t in
      (match Random.State.int rng 10 with
      | 0 | 1 | 2 | 3 | 4 ->
        let size0 = N.size t in
        let n = N.node_of_signal (gate rng t pick) in
        if n >= size0 then begin
          match Hashtbl.find_opt m (key t n) with
          | Some d -> fail "step %d: new gate %d duplicates live gate %d" !step n d
          | None -> ()
        end
        else if N.is_gate t n then begin
          match Hashtbl.find_opt m (key t n) with
          | Some d when d = n -> ()
          | Some d -> fail "step %d: lookup gave %d, model holds %d" !step n d
          | None -> fail "step %d: lookup gave %d, not a live gate" !step n
        end
      | 5 | 6 -> (
        match N.gates t with
        | [] -> ()
        | gs ->
          let g = List.nth gs (Random.State.int rng (List.length gs)) in
          let cone = tfo t g in
          let outside =
            List.filter (fun n -> not (Hashtbl.mem cone n)) (0 :: Array.to_list (nodes ()))
          in
          let r = List.nth outside (Random.State.int rng (List.length outside)) in
          N.substitute_node t g (N.complement_if (Random.State.bool rng) (N.signal_of_node r)))
      | 7 | 8 -> (
        match N.gates t with
        | [] -> ()
        | gs -> N.take_out_if_dead t (List.nth gs (Random.State.int rng (List.length gs))))
      | _ -> N.create_po t (pick ()));
      (match model t with
      | _, Some (a, b) -> fail "step %d: live gates %d and %d share a key" !step a b
      | _, None -> ());
      match N.check_integrity t with
      | [] -> ()
      | e :: _ -> fail "step %d: %s" !step e
    done;
    !failure
end

let churn_prop (type a) name (module N : Intf.NETWORK with type t = a)
    (gate : Random.State.t -> a -> (unit -> Signal.t) -> Signal.t) =
  let module C = Churn (N) in
  QCheck.Test.make ~name:("strash model: " ^ name) ~count:40
    QCheck.(pair (int_bound 9999) (int_range 1 120))
    (fun (seed, steps) ->
      match C.run ~gate ~seed ~steps with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

let churn_props =
  let two (type a) (module N : Intf.NETWORK with type t = a) kinds rng t pick =
    let kind = kinds.(Random.State.int rng (Array.length kinds)) in
    N.create_node t kind [| pick (); pick () |]
  in
  [
    churn_prop "aig" (module Aig) (two (module Aig) [| Kind.And |]);
    churn_prop "xag" (module Xag) (two (module Xag) [| Kind.And; Kind.Xor |]);
    churn_prop "mig" (module Mig) (fun _ t pick -> Mig.create_node t Kind.Maj [| pick (); pick (); pick () |]);
    churn_prop "xmg" (module Xmg) (fun rng t pick ->
        if Random.State.bool rng then Xmg.create_node t Kind.Maj [| pick (); pick (); pick () |]
        else Xmg.create_node t Kind.Xor [| pick (); pick () |]);
    churn_prop "klut" (module Klut) (fun rng t pick ->
        let k = 1 + Random.State.int rng 3 in
        let tt = Kitty.Tt.of_int64 k (Random.State.int64 rng Int64.max_int) in
        Klut.create_node t (Kind.Lut tt) (Array.init k (fun _ -> pick ())));
  ]

let extra_suite =
  List.map Seed.to_alcotest churn_props @
  [
    Alcotest.test_case "xmg basics" `Quick test_xmg_basics;
    Alcotest.test_case "n-ary builders" `Quick test_nary_builders;
    Alcotest.test_case "signal module" `Quick test_signal_module;
    Alcotest.test_case "kind functions" `Quick test_kind_functions;
    Alcotest.test_case "set_po refcount" `Quick test_set_po_refcount;
    Alcotest.test_case "take_out_if_dead" `Quick test_take_out_if_dead;
    Alcotest.test_case "conversion roundtrips" `Quick test_conversion_roundtrips;
    Alcotest.test_case "build of_tt across reps" `Quick test_build_of_tt;
    Alcotest.test_case "pi_index" `Quick test_pi_index;
    Alcotest.test_case "integrity on random mig" `Quick test_integrity_on_random;
  ]

let suite = suite @ extra_suite
