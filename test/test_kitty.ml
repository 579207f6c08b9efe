(* Tests for the truth-table package: Tt, Npn, Isop, Factor. *)

open Kitty

let tt_testable = Alcotest.testable Tt.pp Tt.equal

(* -- deterministic unit tests -- *)

let test_const () =
  Alcotest.(check bool) "const0 is const0" true (Tt.is_const0 (Tt.const0 4));
  Alcotest.(check bool) "const1 is const1" true (Tt.is_const1 (Tt.const1 4));
  Alcotest.(check bool) "const0 of 8 vars" true (Tt.is_const0 (Tt.const0 8));
  Alcotest.(check tt_testable) "not const0 = const1" (Tt.const1 3) Tt.(~:(const0 3))

let test_nth_var () =
  for n = 1 to 8 do
    for i = 0 to n - 1 do
      let v = Tt.nth_var n i in
      Alcotest.(check int)
        (Printf.sprintf "x%d over %d vars has 2^%d ones" i n (n - 1))
        (1 lsl (n - 1)) (Tt.count_ones v);
      for m = 0 to (1 lsl n) - 1 do
        Alcotest.(check int) "bit matches minterm" ((m lsr i) land 1) (Tt.get_bit v m)
      done
    done
  done

let test_ops_small () =
  let a = Tt.nth_var 3 0 and b = Tt.nth_var 3 1 and c = Tt.nth_var 3 2 in
  Alcotest.(check string) "and" "80" (Tt.to_hex Tt.(a &: b &: c));
  Alcotest.(check string) "or" "fe" (Tt.to_hex Tt.(a |: b |: c));
  Alcotest.(check string) "maj" "e8" (Tt.to_hex (Tt.maj a b c));
  Alcotest.(check string) "xor3" "96" (Tt.to_hex Tt.(a ^: b ^: c))

let test_hex_roundtrip () =
  let cases = [ (4, "cafe"); (3, "e8"); (2, "6"); (5, "deadbeef") ] in
  List.iter
    (fun (n, s) ->
      Alcotest.(check string) ("hex roundtrip " ^ s) s (Tt.to_hex (Tt.of_hex n s)))
    cases

let test_cofactors () =
  let f = Tt.of_hex 3 "e8" (* maj *) in
  (* maj(1,b,c) = b|c ; maj(0,b,c) = b&c *)
  let b = Tt.nth_var 3 1 and c = Tt.nth_var 3 2 in
  Alcotest.(check tt_testable) "cofactor1 maj" Tt.(b |: c) (Tt.cofactor1 f 0);
  Alcotest.(check tt_testable) "cofactor0 maj" Tt.(b &: c) (Tt.cofactor0 f 0)

let test_support () =
  let f = Tt.(nth_var 5 1 &: nth_var 5 3) in
  Alcotest.(check (list int)) "support" [ 1; 3 ] (Tt.support f);
  Alcotest.(check bool) "has_var" true (Tt.has_var f 1);
  Alcotest.(check bool) "no var" false (Tt.has_var f 0)

let test_flip_swap () =
  let f = Tt.(nth_var 3 0 &: ~:(nth_var 3 1)) in
  let g = Tt.flip f 1 in
  Alcotest.(check tt_testable) "flip" Tt.(nth_var 3 0 &: nth_var 3 1) g;
  let h = Tt.swap_vars f 0 1 in
  Alcotest.(check tt_testable) "swap" Tt.(nth_var 3 1 &: ~:(nth_var 3 0)) h

let test_extend_shrink () =
  let f = Tt.(nth_var 3 0 ^: nth_var 3 2) in
  let g = Tt.extend f 6 in
  Alcotest.(check tt_testable) "extend" Tt.(nth_var 6 0 ^: nth_var 6 2) g;
  Alcotest.(check tt_testable) "shrink inverse" f (Tt.shrink g 3)

let test_apply () =
  (* compose maj with (and, or, xor) inputs over 2 fresh variables *)
  let maj = Tt.of_hex 3 "e8" in
  let x = Tt.nth_var 2 0 and y = Tt.nth_var 2 1 in
  let got = Tt.apply maj [| Tt.(x &: y); Tt.(x |: y); Tt.(x ^: y) |] in
  let expected = Tt.maj Tt.(x &: y) Tt.(x |: y) Tt.(x ^: y) in
  Alcotest.(check tt_testable) "apply = direct composition" expected got

(* -- NPN -- *)

let test_npn_roundtrip_exhaustive () =
  (* every 3-variable function: canonical + transforms are consistent *)
  for v = 0 to 255 do
    let f = Tt.of_int64 3 (Int64.of_int v) in
    let g, tr = Npn.canonize f in
    Alcotest.(check tt_testable) "apply tr f = canonical" g (Npn.apply tr f);
    Alcotest.(check tt_testable) "apply_inverse tr g = f" f (Npn.apply_inverse tr g)
  done

let test_npn_class_count_3 () =
  (* the number of NPN classes of 3-variable functions is 14 *)
  let classes = Hashtbl.create 32 in
  for v = 0 to 255 do
    let f = Tt.of_int64 3 (Int64.of_int v) in
    let g, _ = Npn.canonize f in
    Hashtbl.replace classes (Tt.to_hex g) ()
  done;
  Alcotest.(check int) "14 NPN classes of 3 vars" 14 (Hashtbl.length classes)

let test_npn_db_assignment () =
  (* db_input_assignment reconstructs f from the canonical form *)
  let rng = Seed.state 42 in
  for _ = 1 to 200 do
    let v = Random.State.int rng 65536 in
    let f = Tt.of_int64 4 (Int64.of_int v) in
    let g, tr = Npn.canonize f in
    let assignment, out_c = Npn.db_input_assignment tr in
    (* feed g with (possibly complemented) projections per the assignment *)
    let args =
      Array.map
        (fun (leaf, c) ->
          let p = Tt.nth_var 4 leaf in
          if c then Tt.( ~: ) p else p)
        assignment
    in
    let rebuilt = Tt.apply g args in
    let rebuilt = if out_c then Tt.( ~: ) rebuilt else rebuilt in
    Alcotest.(check tt_testable) "db assignment rebuilds f" f rebuilt
  done

(* -- ISOP / factoring -- *)

let test_isop_simple () =
  let f = Tt.(nth_var 3 0 |: (nth_var 3 1 &: nth_var 3 2)) in
  let cubes = Isop.of_tt f in
  Alcotest.(check tt_testable) "isop covers f" f (Cube.sop_to_tt 3 cubes);
  Alcotest.(check int) "two cubes" 2 (List.length cubes)

let test_factor_simple () =
  (* x0 x1 + x0 x2 factors into x0 (x1 + x2): 3 literals *)
  let f = Tt.((nth_var 3 0 &: nth_var 3 1) |: (nth_var 3 0 &: nth_var 3 2)) in
  let e = Factor.of_tt f in
  Alcotest.(check tt_testable) "factor sound" f (Factor.to_tt 3 e);
  Alcotest.(check int) "3 literals" 3 (Factor.literal_count e)

(* -- property-based tests -- *)

let arb_tt n =
  QCheck.make
    ~print:(fun v -> Printf.sprintf "0x%Lx" v)
    QCheck.Gen.(map Int64.of_int (int_bound ((1 lsl min 16 (1 lsl n)) - 1)))

let prop_demorgan =
  QCheck.Test.make ~name:"DeMorgan on truth tables" ~count:500
    (QCheck.pair (arb_tt 4) (arb_tt 4))
    (fun (a, b) ->
      let a = Tt.of_int64 4 a and b = Tt.of_int64 4 b in
      Tt.equal Tt.(~:(a &: b)) Tt.(~:a |: ~:b))

let prop_shannon =
  QCheck.Test.make ~name:"Shannon expansion" ~count:500 (arb_tt 4)
    (fun v ->
      let f = Tt.of_int64 4 v in
      let ok = ref true in
      for i = 0 to 3 do
        let x = Tt.nth_var 4 i in
        let expanded = Tt.((x &: cofactor1 f i) |: (~:x &: cofactor0 f i)) in
        ok := !ok && Tt.equal f expanded
      done;
      !ok)

let prop_npn_invariant =
  QCheck.Test.make ~name:"NPN canonical is class invariant" ~count:200
    (QCheck.pair (arb_tt 4) (QCheck.int_bound 15))
    (fun (v, flips) ->
      let f = Tt.of_int64 4 v in
      (* apply a random input-flip transform; canonical must not change *)
      let tr = { Npn.perm = [| 0; 1; 2; 3 |]; flips; out_flip = false } in
      let f' = Npn.apply tr f in
      let g, _ = Npn.canonize f and g', _ = Npn.canonize f' in
      Tt.equal g g')

let prop_isop_sound =
  QCheck.Test.make ~name:"ISOP cover equals function" ~count:500 (arb_tt 4)
    (fun v ->
      let f = Tt.of_int64 4 v in
      Tt.equal f (Cube.sop_to_tt 4 (Isop.of_tt f)))

let prop_factor_sound =
  QCheck.Test.make ~name:"factored form equals function" ~count:500 (arb_tt 4)
    (fun v ->
      let f = Tt.of_int64 4 v in
      Tt.equal f (Factor.to_tt 4 (Factor.of_tt f)))

let prop_isop_sound_6 =
  QCheck.Test.make ~name:"ISOP sound on 6 vars" ~count:100
    (QCheck.pair (arb_tt 4) (arb_tt 4))
    (fun (v1, v2) ->
      (* build a 6-var function from two 4-var pieces *)
      let a = Tt.extend (Tt.of_int64 4 v1) 6 in
      let b = Tt.extend (Tt.of_int64 4 v2) 6 in
      let f = Tt.(ite (nth_var 6 5) a (b ^: nth_var 6 4)) in
      Tt.equal f (Cube.sop_to_tt 6 (Isop.of_tt f)))

let suite =
  [
    Alcotest.test_case "constants" `Quick test_const;
    Alcotest.test_case "nth_var" `Quick test_nth_var;
    Alcotest.test_case "basic ops" `Quick test_ops_small;
    Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
    Alcotest.test_case "cofactors" `Quick test_cofactors;
    Alcotest.test_case "support" `Quick test_support;
    Alcotest.test_case "flip/swap" `Quick test_flip_swap;
    Alcotest.test_case "extend/shrink" `Quick test_extend_shrink;
    Alcotest.test_case "apply" `Quick test_apply;
    Alcotest.test_case "npn roundtrip (all 3-var)" `Quick test_npn_roundtrip_exhaustive;
    Alcotest.test_case "npn class count (3 vars)" `Quick test_npn_class_count_3;
    Alcotest.test_case "npn db assignment" `Quick test_npn_db_assignment;
    Alcotest.test_case "isop simple" `Quick test_isop_simple;
    Alcotest.test_case "factor simple" `Quick test_factor_simple;
    Seed.to_alcotest prop_demorgan;
    Seed.to_alcotest prop_shannon;
    Seed.to_alcotest prop_npn_invariant;
    Seed.to_alcotest prop_isop_sound;
    Seed.to_alcotest prop_factor_sound;
    Seed.to_alcotest prop_isop_sound_6;
  ]

(* -- multi-word truth tables (more than 6 variables) -- *)

let test_multiword_ops () =
  let n = 8 in
  let a = Tt.nth_var n 0 and g = Tt.nth_var n 7 in
  (* variables below and above the word boundary behave identically *)
  Alcotest.(check int) "count a" (1 lsl (n - 1)) (Tt.count_ones a);
  Alcotest.(check int) "count g" (1 lsl (n - 1)) (Tt.count_ones g);
  Alcotest.(check int) "count a&g" (1 lsl (n - 2)) (Tt.count_ones Tt.(a &: g));
  Alcotest.(check tt_testable) "demorgan 8 vars" Tt.(~:(a &: g)) Tt.(~:a |: ~:g)

let test_multiword_cofactor_flip () =
  let n = 8 in
  for i = 0 to n - 1 do
    let f = Tt.(nth_var n i &: nth_var n ((i + 3) mod n)) in
    (* cofactors of f in i *)
    Alcotest.(check bool)
      (Printf.sprintf "cof0 var %d" i)
      true
      (Tt.is_const0 (Tt.cofactor0 f i));
    Alcotest.(check tt_testable)
      (Printf.sprintf "cof1 var %d" i)
      (Tt.nth_var n ((i + 3) mod n))
      (Tt.cofactor1 f i);
    (* double flip is identity *)
    Alcotest.(check tt_testable)
      (Printf.sprintf "flip twice var %d" i)
      f
      (Tt.flip (Tt.flip f i) i);
    (* flip exchanges cofactors *)
    Alcotest.(check tt_testable)
      (Printf.sprintf "flip swaps cofactors var %d" i)
      (Tt.cofactor0 f i)
      (Tt.cofactor1 (Tt.flip f i) i)
  done

let test_multiword_swap () =
  let n = 9 in
  (* swap across the word boundary: vars 2 and 8 *)
  let f = Tt.(nth_var n 2 &: ~:(nth_var n 8)) in
  let g = Tt.swap_vars f 2 8 in
  Alcotest.(check tt_testable) "swap" Tt.(nth_var n 8 &: ~:(nth_var n 2)) g;
  Alcotest.(check tt_testable) "swap involutive" f (Tt.swap_vars g 2 8)

let test_extend_shrink_multiword () =
  let f = Tt.(nth_var 5 1 ^: nth_var 5 4) in
  let g = Tt.extend f 9 in
  Alcotest.(check tt_testable) "extend to 9" Tt.(nth_var 9 1 ^: nth_var 9 4) g;
  Alcotest.(check tt_testable) "shrink back" f (Tt.shrink g 5);
  Alcotest.(check (list int)) "support preserved" [ 1; 4 ] (Tt.support g)

let test_npn_class_count_4 () =
  (* the classic result: 222 NPN classes of 4-variable functions *)
  let classes = Hashtbl.create 256 in
  for v = 0 to 65535 do
    let f = Tt.of_int64 4 (Int64.of_int v) in
    let g, _ = Npn.canonize f in
    Hashtbl.replace classes (Tt.to_hex g) ()
  done;
  Alcotest.(check int) "222 NPN classes of 4 vars" 222 (Hashtbl.length classes)

let test_npn_roundtrip_4 () =
  let rng = Seed.state 99 in
  for _ = 1 to 500 do
    let v = Random.State.int rng 65536 in
    let f = Tt.of_int64 4 (Int64.of_int v) in
    let g, tr = Npn.canonize f in
    Alcotest.(check tt_testable) "apply" g (Npn.apply tr f);
    Alcotest.(check tt_testable) "inverse" f (Npn.apply_inverse tr g)
  done

let test_cube_ops () =
  let c = Cube.of_literal 2 true in
  let c = Cube.add_literal c 5 false in
  Alcotest.(check int) "2 literals" 2 (Cube.num_literals c);
  Alcotest.(check bool) "has 2" true (Cube.has_literal c 2);
  Alcotest.(check bool) "polarity 2" true (Cube.polarity c 2);
  Alcotest.(check bool) "polarity 5" false (Cube.polarity c 5);
  let c' = Cube.remove_literal c 2 in
  Alcotest.(check int) "1 literal" 1 (Cube.num_literals c');
  Alcotest.(check tt_testable) "cube tt"
    Tt.(nth_var 6 2 &: ~:(nth_var 6 5))
    (Cube.to_tt 6 c)

let test_isop_irredundant () =
  (* each ISOP cube must be necessary: removing any changes the function *)
  let rng = Seed.state 7 in
  for _ = 1 to 50 do
    let v = Random.State.int rng 65536 in
    let f = Tt.of_int64 4 (Int64.of_int v) in
    let cubes = Isop.of_tt f in
    List.iteri
      (fun i _ ->
        let without = List.filteri (fun j _ -> j <> i) cubes in
        if Tt.equal (Cube.sop_to_tt 4 without) f then
          Alcotest.failf "redundant cube in ISOP of %s" (Tt.to_hex f))
      cubes
  done

let test_factor_not_worse_than_sop () =
  (* the factored form never has more literals than the flat SOP *)
  let rng = Seed.state 13 in
  for _ = 1 to 100 do
    let v = Random.State.int rng 65536 in
    let f = Tt.of_int64 4 (Int64.of_int v) in
    if not (Tt.is_const0 f || Tt.is_const1 f) then begin
      let sop_lits = Cube.sop_literal_count (Isop.of_tt f) in
      let factored_lits = Factor.literal_count (Factor.of_tt f) in
      if factored_lits > sop_lits then
        Alcotest.failf "factoring increased literals for %s: %d > %d"
          (Tt.to_hex f) factored_lits sop_lits
    end
  done

(* -- storage contract: every word-level operation agrees with a
   reference built from [get_bit] alone -- *)

(* A constant, or random bits over [n] variables. *)
let random_table rng n =
  match Random.State.int rng 4 with
  | 0 -> Tt.const0 n
  | 1 -> Tt.const1 n
  | _ ->
    let f = Tt.create n in
    for m = 0 to (1 lsl n) - 1 do
      if Random.State.bool rng then Tt.set_bit f m
    done;
    f

(* [f] with a few random minterms flipped: mostly equal words, so a
   comparison has to look past the first words that agree. *)
let near_table rng f =
  let g = Tt.copy f in
  for _ = 0 to Random.State.int rng 2 do
    let m = Random.State.int rng (Tt.num_bits g) in
    if Tt.get_bit g m = 1 then Tt.clear_bit g m else Tt.set_bit g m
  done;
  g

(* Word [w] of [f] assembled bit by bit. *)
let reference_word f w =
  let v = ref 0L in
  for b = 63 downto 0 do
    let m = (64 * w) + b in
    let bit = if m < Tt.num_bits f then Tt.get_bit f m else 0 in
    v := Int64.logor (Int64.shift_left !v 1) (Int64.of_int bit)
  done;
  !v

(* Variable count, then words from word 0 as signed 64-bit integers. *)
let reference_compare a b =
  let c = Int.compare (Tt.num_vars a) (Tt.num_vars b) in
  if c <> 0 then c
  else
    let words = max 1 (Tt.num_bits a / 64) in
    let rec go w =
      if w = words then 0
      else
        let c = Int64.compare (reference_word a w) (reference_word b w) in
        if c <> 0 then c else go (w + 1)
    in
    go 0

let for_all_minterms f p =
  let ok = ref true in
  for m = 0 to Tt.num_bits f - 1 do
    if not (p m) then ok := false
  done;
  !ok

let prop_storage_contract =
  QCheck.Test.make ~name:"storage contract: ops, order and codecs vs get_bit"
    ~count:300 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = Random.State.int rng 13 in
      let a = random_table rng n in
      let b =
        match Random.State.int rng 4 with
        | 0 -> Tt.copy a
        | 1 -> random_table rng n
        | 2 -> random_table rng (Random.State.int rng 13)
        | _ -> near_table rng a
      in
      let bit = Tt.get_bit in
      let sign x = Int.compare x 0 in
      let same_vars = Tt.num_vars a = Tt.num_vars b in
      let ops_ok =
        (not same_vars)
        ||
        let conj = Tt.(a &: b) and disj = Tt.(a |: b) and diff = Tt.(a ^: b) in
        for_all_minterms a (fun m ->
            bit conj m = bit a m land bit b m
            && bit disj m = bit a m lor bit b m
            && bit diff m = bit a m lxor bit b m)
      in
      let not_a = Tt.(~:a) in
      let not_ok =
        for_all_minterms a (fun m -> bit not_a m = 1 - bit a m)
        && (n >= 6
           || Int64.shift_right_logical (Tt.to_int64 not_a) (1 lsl n) = 0L)
      in
      let equal_ok =
        Tt.equal a b
        = (same_vars && for_all_minterms a (fun m -> bit a m = bit b m))
      in
      let const_ok =
        Tt.is_const0 a = for_all_minterms a (fun m -> bit a m = 0)
        && Tt.is_const1 a = for_all_minterms a (fun m -> bit a m = 1)
      in
      let order_ok =
        sign (Tt.compare a b) = sign (reference_compare a b)
        && sign (Tt.compare b a) = sign (reference_compare b a)
      in
      let codecs_ok =
        Tt.equal (Tt.of_hex n (Tt.to_hex a)) a
        && (n > 6
           ||
           let w = Random.State.bits64 rng in
           Tt.equal (Tt.of_int64 n (Tt.to_int64 a)) a
           && Tt.equal (Tt.of_int64 n w) (Tt.of_int64 n (Tt.to_int64 (Tt.of_int64 n w)))
           && Tt.to_int64 (Tt.of_int64 n w) = reference_word (Tt.of_int64 n w) 0)
      in
      ops_ok && not_ok && equal_ok && const_ok && order_ok && codecs_ok)

(* The memoized canonization answers exactly what the search it caches
   answers, on a first (filling) and a second (reading) call. *)
let test_npn_memo_matches_exhaustive () =
  let same f =
    let expect = Npn.canonize_exhaustive f in
    let first = Npn.canonize f in
    let second = Npn.canonize f in
    let eq (g, (tr : Npn.transform)) (g', (tr' : Npn.transform)) =
      Tt.equal g g' && tr.Npn.perm = tr'.Npn.perm && tr.Npn.flips = tr'.Npn.flips
      && tr.Npn.out_flip = tr'.Npn.out_flip
    in
    if not (eq first expect && eq second expect) then
      Alcotest.failf "canonize %d-var 0x%s differs from canonize_exhaustive"
        (Tt.num_vars f) (Tt.to_hex f)
  in
  for n = 0 to 3 do
    for v = 0 to (1 lsl (1 lsl n)) - 1 do
      same (Tt.of_int64 n (Int64.of_int v))
    done
  done;
  let rng = Seed.state 32 in
  for _ = 1 to 300 do
    same (Tt.of_int64 4 (Int64.of_int (Random.State.int rng 65536)))
  done

let prop_fused_kernels =
  QCheck.Test.make ~name:"and_c and implies match their unfused forms"
    ~count:300 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = Random.State.int rng 13 in
      let a = random_table rng n in
      let b =
        match Random.State.int rng 3 with
        | 0 -> random_table rng n
        | 1 -> near_table rng a
        | _ -> Tt.(a |: random_table rng n)
      in
      let lit c x = if c then Tt.( ~: ) x else x in
      let and_ok =
        List.for_all
          (fun (ca, cb) ->
            Tt.equal (Tt.and_c ca a cb b) Tt.(lit ca a &: lit cb b))
          [ (false, false); (true, false); (false, true); (true, true) ]
      in
      let implies_ok =
        List.for_all
          (fun (x, y) -> Tt.implies x y = Tt.is_const0 Tt.(x &: ~:y))
          [ (a, b); (b, a); (a, a); (Tt.const0 n, a); (a, Tt.const1 n) ]
      in
      and_ok && implies_ok)

(* -- variable moves: the word-level kernel against bit-level
   references -- *)

(* The bit loop [Tt.swap_vars] used before the word-level kernel: every
   on-set minterm moves to the minterm with bits [i] and [j] exchanged. *)
let reference_swap tt i j =
  let n = Tt.num_vars tt in
  let r = Tt.create n in
  for m = 0 to (1 lsl n) - 1 do
    if Tt.get_bit tt m = 1 then begin
      let bi = (m lsr i) land 1 and bj = (m lsr j) land 1 in
      let m' =
        m land lnot ((1 lsl i) lor (1 lsl j)) lor (bj lsl i) lor (bi lsl j)
      in
      Tt.set_bit r m'
    end
  done;
  r

(* Covers all three cases of the kernel: both variables below 6, one
   below and one above, both above. *)
let prop_swap_vars_reference =
  QCheck.Test.make ~name:"swap_vars equals the minterm loop (n <= 10)"
    ~count:100 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 2 + Random.State.int rng 9 in
      let f = random_table rng n in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let expect = reference_swap f i j in
          if
            not
              (Tt.equal (Tt.swap_vars f i j) expect
              && Tt.equal (Tt.swap_vars f j i) expect)
          then ok := false
        done;
        if not (Tt.equal (Tt.swap_vars f i i) f) then ok := false
      done;
      !ok)

(* [k] distinct elements of the ascending array [pool], ascending. *)
let random_subset rng pool k =
  let a = Array.copy pool in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  let s = Array.sub a 0 k in
  Array.sort compare s;
  s

(* [expand] is the composition it replaced in the cut engine: [f] applied
   to the projections of its variables' positions in [into]. *)
let prop_expand_is_composition =
  QCheck.Test.make ~name:"expand equals apply over projections (k <= 12, m <= 14)"
    ~count:300 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let int = Random.State.int rng in
      let k, m =
        match int 4 with
        | 0 ->
          let m = 1 + int 6 in
          (1 + int m, m)
        | 1 -> (1 + int 5, 7 + int 8)
        | 2 ->
          let k = 6 + int 7 in
          (k, k + 1 + int (14 - k))
        | _ ->
          let k = 1 + int 12 in
          (k, k)
      in
      let into = random_subset rng (Array.init (2 * m) (fun i -> 3 * i)) m in
      let from = random_subset rng into k in
      let f = random_table rng k in
      let position leaf =
        let rec go p = if into.(p) = leaf then p else go (p + 1) in
        go 0
      in
      let expect =
        Tt.apply f (Array.map (fun l -> Tt.nth_var m (position l)) from)
      in
      Tt.equal (Tt.expand f ~from ~into) expect)

(* A 0-variable table expands to the constant over [into]; [Tt.apply]
   has no variable count to take there. *)
let test_expand_constants () =
  let rng = Seed.state 36 in
  for m = 0 to 14 do
    let into = random_subset rng (Array.init (2 * m) (fun i -> i)) m in
    Alcotest.(check tt_testable) (Printf.sprintf "const0 into %d" m)
      (Tt.const0 m) (Tt.expand (Tt.const0 0) ~from:[||] ~into);
    Alcotest.(check tt_testable) (Printf.sprintf "const1 into %d" m)
      (Tt.const1 m) (Tt.expand (Tt.const1 0) ~from:[||] ~into)
  done

(* -- the allocation-free kernels against the compositions they replace -- *)

(* The single-word ISOP lists the cubes the multi-word recursion lists:
   [Tt.extend f 7] takes the [Bytes] path, and the added variable is never
   split on.  Every function of at most 4 variables. *)
let test_isop_word_exhaustive () =
  for n = 0 to 4 do
    for v = 0 to (1 lsl (1 lsl n)) - 1 do
      let f = Tt.of_int64 n (Int64.of_int v) in
      if Isop.of_tt f <> Isop.of_tt (Tt.extend f 7) then
        Alcotest.failf "ISOP of %d-var 0x%s differs from the multi-word one" n
          (Tt.to_hex f)
    done
  done

let prop_isop_word_wide =
  QCheck.Test.make ~name:"single-word ISOP = multi-word ISOP (5, 6 vars)"
    ~count:300 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 5 + Random.State.int rng 2 in
      let f =
        match Random.State.int rng 3 with
        | 0 -> random_table rng n
        | 1 ->
          (* free of variable 5 or of a lower one *)
          let g = random_table rng n in
          Tt.exists g (Random.State.int rng n)
        | _ -> Tt.(random_table rng n &: random_table rng n)
      in
      Isop.of_tt f = Isop.of_tt (Tt.extend f 7))

let prop_has_var_cofactors =
  QCheck.Test.make ~name:"has_var = cofactors differ (n <= 10)" ~count:300
    (QCheck.int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = Random.State.int rng 11 in
      let f = random_table rng n in
      (* drop a variable now and then, so [false] answers occur too *)
      let f = if n > 0 && Random.State.bool rng then Tt.exists f (Random.State.int rng n) else f in
      List.for_all
        (fun i ->
          Tt.has_var f i
          = not (Tt.equal (Tt.cofactor0 f i) (Tt.cofactor1 f i)))
        (List.init n Fun.id))

(* Each fused check against its allocating composition, for every flag
   combination.  The targets are the composition itself and the
   composition with one minterm flipped, so both answers occur; below 6
   variables a complemented operand sets the word's unused bits, which
   the checks must mask. *)
let prop_complemented_checks =
  QCheck.Test.make ~name:"checks over complemented operands = compositions (n <= 10)"
    ~count:300 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = Random.State.int rng 11 in
      let a = random_table rng n and b = random_table rng n
      and c = random_table rng n in
      let lit f x = if f then Tt.( ~: ) x else x in
      let near t =
        let t = Tt.copy t and m = Random.State.int rng (1 lsl n) in
        if Tt.get_bit t m = 1 then Tt.clear_bit t m else Tt.set_bit t m;
        t
      in
      let flags = [ false; true ] in
      List.for_all
        (fun ca ->
          List.for_all
            (fun cb ->
              let la = lit ca a and lb = lit cb b in
              (* [b'] over which [a]'s literal implies [b']'s literal *)
              let b' = lit cb Tt.(la |: c) in
              let targets t = [ t; near t; c ] in
              List.for_all
                (fun t -> Tt.equal_c ca a t = Tt.equal la t)
                (targets la)
              && List.for_all
                   (fun (x, y) ->
                     Tt.implies_c ca x cb y = Tt.implies (lit ca x) (lit cb y))
                   [ (a, b); (a, b'); (a, near b') ]
              && List.for_all
                   (fun cc ->
                     List.for_all
                       (fun t ->
                         Tt.and_implies_c ca a cb b cc t
                         = Tt.implies Tt.(la &: lb) (lit cc t))
                       [ lit cc Tt.(la &: lb); lit cc (near Tt.(la &: lb)); c ])
                   flags
              && List.for_all
                   (fun t -> Tt.or_equal_c ca a cb b t = Tt.equal Tt.(la |: lb) t)
                   (targets Tt.(la |: lb))
              && List.for_all
                   (fun t -> Tt.and_equal_c ca a cb b t = Tt.equal Tt.(la &: lb) t)
                   (targets Tt.(la &: lb))
              && List.for_all
                   (fun cc ->
                     let expect = Tt.(la |: (lb &: lit cc c)) in
                     List.for_all
                       (fun t ->
                         Tt.or_and_equal_c ca a cb b cc c t = Tt.equal expect t)
                       (targets expect))
                   flags)
            flags)
        flags)

let extra_suite =
  [
    Alcotest.test_case "multiword ops" `Quick test_multiword_ops;
    Alcotest.test_case "multiword cofactor/flip" `Quick test_multiword_cofactor_flip;
    Alcotest.test_case "multiword swap" `Quick test_multiword_swap;
    Alcotest.test_case "extend/shrink multiword" `Quick test_extend_shrink_multiword;
    Alcotest.test_case "npn class count (4 vars) = 222" `Quick test_npn_class_count_4;
    Alcotest.test_case "npn roundtrip (4 vars)" `Quick test_npn_roundtrip_4;
    Alcotest.test_case "cube operations" `Quick test_cube_ops;
    Alcotest.test_case "isop irredundant" `Quick test_isop_irredundant;
    Alcotest.test_case "factoring no worse than sop" `Quick test_factor_not_worse_than_sop;
    Seed.to_alcotest prop_storage_contract;
    Alcotest.test_case "npn memo = exhaustive (0-4 vars)" `Quick
      test_npn_memo_matches_exhaustive;
    Seed.to_alcotest prop_fused_kernels;
    Seed.to_alcotest prop_swap_vars_reference;
    Seed.to_alcotest prop_expand_is_composition;
    Alcotest.test_case "expand constants" `Quick test_expand_constants;
    Alcotest.test_case "single-word ISOP = multi-word ISOP (0-4 vars)" `Quick
      test_isop_word_exhaustive;
    Seed.to_alcotest prop_isop_word_wide;
    Seed.to_alcotest prop_has_var_cofactors;
    Seed.to_alcotest prop_complemented_checks;
  ]

let suite = suite @ extra_suite
