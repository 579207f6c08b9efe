(* Tests for SAT-based exact synthesis: known optimum sizes, simulation
   soundness, per-representation operator sets, database caching. *)

open Kitty

let tt_testable = Alcotest.testable Tt.pp Tt.equal

let chain_size_of = function
  | Exact.Synth.Chain c -> Exact.Chain.size c
  | Exact.Synth.Const _ | Exact.Synth.Projection _ -> 0
  | Exact.Synth.Failed -> -1

let check_chain name config f expected_size =
  match Exact.Synth.synthesize config f with
  | Exact.Synth.Chain c ->
    Alcotest.(check tt_testable) (name ^ ": simulates back") f (Exact.Chain.simulate c);
    if expected_size >= 0 then
      Alcotest.(check int) (name ^ ": optimal size") expected_size (Exact.Chain.size c)
  | Exact.Synth.Const _ | Exact.Synth.Projection _ ->
    Alcotest.fail (name ^ ": unexpectedly trivial")
  | Exact.Synth.Failed -> Alcotest.fail (name ^ ": synthesis failed")

let test_trivial () =
  let f0 = Tt.const0 3 and f1 = Tt.const1 3 in
  Alcotest.(check bool) "const0" true
    (Exact.Synth.synthesize Exact.Synth.aig_config f0 = Exact.Synth.Const false);
  Alcotest.(check bool) "const1" true
    (Exact.Synth.synthesize Exact.Synth.aig_config f1 = Exact.Synth.Const true);
  Alcotest.(check bool) "projection" true
    (Exact.Synth.synthesize Exact.Synth.aig_config (Tt.nth_var 3 1)
    = Exact.Synth.Projection (1, false));
  Alcotest.(check bool) "complemented projection" true
    (Exact.Synth.synthesize Exact.Synth.aig_config Tt.(~:(nth_var 3 1))
    = Exact.Synth.Projection (1, true))

let test_and_or () =
  let a = Tt.nth_var 2 0 and b = Tt.nth_var 2 1 in
  check_chain "and/aig" Exact.Synth.aig_config Tt.(a &: b) 1;
  check_chain "or/aig" Exact.Synth.aig_config Tt.(a |: b) 1;
  check_chain "nand/aig" Exact.Synth.aig_config Tt.(~:(a &: b)) 1

let test_xor_sizes () =
  let a = Tt.nth_var 2 0 and b = Tt.nth_var 2 1 in
  let x = Tt.(a ^: b) in
  (* XOR costs 3 AND gates in an AIG but a single gate in an XAG *)
  check_chain "xor/aig" Exact.Synth.aig_config x 3;
  check_chain "xor/xag" Exact.Synth.xag_config x 1

let test_maj_sizes () =
  let f = Tt.maj (Tt.nth_var 3 0) (Tt.nth_var 3 1) (Tt.nth_var 3 2) in
  (* MAJ costs 4 AND gates in an AIG but a single gate in a MIG *)
  check_chain "maj/aig" Exact.Synth.aig_config f 4;
  check_chain "maj/mig" Exact.Synth.mig_config f 1;
  (* and-or decomposition in a MIG: and is one maj-with-constant gate *)
  let a = Tt.nth_var 2 0 and b = Tt.nth_var 2 1 in
  check_chain "and/mig" Exact.Synth.mig_config Tt.(a &: b) 1;
  check_chain "or/mig" Exact.Synth.mig_config Tt.(a |: b) 1

let test_xor3 () =
  let x3 = Tt.(nth_var 3 0 ^: nth_var 3 1 ^: nth_var 3 2) in
  check_chain "xor3/xag" Exact.Synth.xag_config x3 2;
  check_chain "xor3/xmg" Exact.Synth.xmg_config x3 1

let test_mux () =
  let f = Tt.ite (Tt.nth_var 3 0) (Tt.nth_var 3 1) (Tt.nth_var 3 2) in
  check_chain "mux/aig" Exact.Synth.aig_config f 3;
  check_chain "mux/mig" Exact.Synth.mig_config f (-1)

let prop_synth_sound =
  QCheck.Test.make ~name:"exact synthesis simulates back (3 vars, xag)"
    ~count:40
    (QCheck.int_bound 255)
    (fun v ->
      let f = Tt.of_int64 3 (Int64.of_int v) in
      match Exact.Synth.synthesize Exact.Synth.xag_config f with
      | Exact.Synth.Const b -> Tt.equal f (if b then Tt.const1 3 else Tt.const0 3)
      | Exact.Synth.Projection (i, c) ->
        let p = Tt.nth_var 3 i in
        Tt.equal f (if c then Tt.( ~: ) p else p)
      | Exact.Synth.Chain c -> Tt.equal f (Exact.Chain.simulate c)
      | Exact.Synth.Failed -> false)

let prop_synth_sound_mig =
  QCheck.Test.make ~name:"exact synthesis simulates back (3 vars, mig)"
    ~count:15
    (QCheck.int_bound 255)
    (fun v ->
      let f = Tt.of_int64 3 (Int64.of_int v) in
      match Exact.Synth.synthesize Exact.Synth.mig_config f with
      | Exact.Synth.Const b -> Tt.equal f (if b then Tt.const1 3 else Tt.const0 3)
      | Exact.Synth.Projection (i, c) ->
        let p = Tt.nth_var 3 i in
        Tt.equal f (if c then Tt.( ~: ) p else p)
      | Exact.Synth.Chain c -> Tt.equal f (Exact.Chain.simulate c)
      | Exact.Synth.Failed -> false)

let test_database_caching () =
  (* no shipped table for this config: the first lookup synthesizes *)
  let db =
    Exact.Database.create { Exact.Synth.xag_config with conflict_budget = 20_000 }
  in
  let a = Tt.nth_var 4 0 and b = Tt.nth_var 4 1 in
  let f = Tt.(a &: b) in
  let r1, _ = Exact.Database.lookup db f in
  Alcotest.(check bool) "first lookup synthesizes" true (chain_size_of r1 = 1);
  (* an NPN-equivalent function must hit the cache *)
  let g = Tt.(~:(nth_var 4 2) |: nth_var 4 3) in
  let _ = Exact.Database.lookup db g in
  let hits, misses, failures = Exact.Database.stats db in
  Alcotest.(check int) "one miss" 1 misses;
  Alcotest.(check int) "one hit" 1 hits;
  Alcotest.(check int) "no failures" 0 failures

let test_decode_into_aig () =
  (* decode a synthesized chain into an AIG and compare functions by
     explicitly evaluating the AIG on all minterms *)
  let f = Tt.(maj (nth_var 3 0) (nth_var 3 1) (nth_var 3 2) ^: nth_var 3 0) in
  match Exact.Synth.synthesize Exact.Synth.xag_config f with
  | Exact.Synth.Chain c ->
    let module N = Network.Xag in
    let module D = Exact.Decode.Make (Network.Xag) in
    let t = N.create () in
    let inputs = Array.init 3 (fun _ -> N.create_pi t) in
    let out = D.chain t c inputs in
    N.create_po t out;
    (* brute-force evaluation of the XAG *)
    let eval m =
      let values = Hashtbl.create 16 in
      Hashtbl.replace values 0 false;
      Array.iteri
        (fun i s -> Hashtbl.replace values (N.node_of_signal s) ((m lsr i) land 1 = 1))
        inputs;
      let rec node_value n =
        match Hashtbl.find_opt values n with
        | Some v -> v
        | None ->
          let fs = N.fanin t n in
          let vs =
            Array.map
              (fun s ->
                let v = node_value (N.node_of_signal s) in
                if N.is_complemented s then not v else v)
              fs
          in
          let v =
            match N.gate_kind t n with
            | Network.Kind.And -> Array.for_all Fun.id vs
            | Network.Kind.Xor -> Array.fold_left ( <> ) false vs
            | _ -> assert false
          in
          Hashtbl.replace values n v;
          v
      in
      let po = N.po_at t 0 in
      let v = node_value (N.node_of_signal po) in
      if N.is_complemented po then not v else v
    in
    for m = 0 to 7 do
      Alcotest.(check bool)
        (Printf.sprintf "minterm %d" m)
        (Tt.get_bit f m = 1) (eval m)
    done
  | _ -> Alcotest.fail "expected a chain"

let suite =
  [
    Alcotest.test_case "trivial functions" `Quick test_trivial;
    Alcotest.test_case "and/or optimal" `Quick test_and_or;
    Alcotest.test_case "xor sizes per representation" `Quick test_xor_sizes;
    Alcotest.test_case "maj sizes per representation" `Quick test_maj_sizes;
    Alcotest.test_case "xor3 sizes" `Quick test_xor3;
    Alcotest.test_case "mux" `Quick test_mux;
    Alcotest.test_case "database caching" `Quick test_database_caching;
    Alcotest.test_case "decode into xag" `Quick test_decode_into_aig;
    Seed.to_alcotest prop_synth_sound;
    Seed.to_alcotest prop_synth_sound_mig;
  ]

(* -- additional coverage -- *)

let test_decode_into_mig () =
  (* decode a MAJ-constrained chain into a MIG and verify by simulation *)
  let f = Tt.(maj (nth_var 3 0) (nth_var 3 1) (~:(nth_var 3 2)) |: nth_var 3 0) in
  match Exact.Synth.synthesize Exact.Synth.mig_config f with
  | Exact.Synth.Chain c ->
    let module N = Network.Mig in
    let module D = Exact.Decode.Make (Network.Mig) in
    let module S = Algo.Simulate.Make (Network.Mig) in
    let t = N.create () in
    let inputs = Array.init 3 (fun _ -> N.create_pi t) in
    N.create_po t (D.chain t c inputs);
    Alcotest.(check tt_testable) "mig decode correct" f (S.output_functions t).(0)
  | Exact.Synth.Const _ | Exact.Synth.Projection _ -> Alcotest.fail "trivial?"
  | Exact.Synth.Failed -> Alcotest.fail "synthesis failed"

let shared_db =
  let db = lazy (Exact.Database.create Exact.Synth.xag_config) in
  fun () -> Lazy.force db

let prop_database_decode_sound =
  (* end-to-end: db lookup + NPN instantiation + decode equals the original
     function, for random 4-var functions into an XAG *)
  QCheck.Test.make ~name:"database decode reproduces the function" ~count:60
    (QCheck.int_bound 65535)
    (fun v ->
      let f = Tt.of_int64 4 (Int64.of_int v) in
      let db = shared_db () in
      let module N = Network.Xag in
      let module D = Exact.Decode.Make (Network.Xag) in
      let module S = Algo.Simulate.Make (Network.Xag) in
      let t = N.create () in
      let inputs = Array.init 4 (fun _ -> N.create_pi t) in
      match D.of_lookup t (Exact.Database.lookup db f) inputs with
      | None -> true (* budget exhausted is allowed *)
      | Some s ->
        N.create_po t s;
        Tt.equal f (S.output_functions t).(0))

let test_chain_pp () =
  match Exact.Synth.synthesize Exact.Synth.xag_config (Tt.of_hex 2 "6") with
  | Exact.Synth.Chain c ->
    let s = Format.asprintf "%a" Exact.Chain.pp c in
    Alcotest.(check bool) "pp mentions inputs" true (String.length s > 10)
  | _ -> Alcotest.fail "xor should be a chain"

(* A one-step chain applying [op] to the inputs, decoded into [N],
   simulates to [op], and takes one gate when [single op]: pins the
   operator tables [Decode] matches steps against, for every 2-input (16)
   and 3-input (256) operator. *)
module Decode_all_ops (N : Network.Intf.NETWORK) = struct
  module D = Exact.Decode.Make (N)
  module S = Algo.Simulate.Make (N)

  let check name ~single =
    for k = 2 to 3 do
      for v = 0 to (1 lsl (1 lsl k)) - 1 do
        let op = Tt.of_int64 k (Int64.of_int v) in
        let c =
          {
            Exact.Chain.num_inputs = k;
            steps = [| { Exact.Chain.fanins = Array.init k (fun i -> i + 1); op } |];
            out_complement = false;
          }
        in
        let t = N.create () in
        let inputs = Array.init k (fun _ -> N.create_pi t) in
        N.create_po t (D.chain t c inputs);
        let got = (S.output_functions t).(0) in
        if not (Tt.equal got op) then
          Alcotest.failf "%s: %d-input op 0x%s decodes to 0x%s" name k
            (Tt.to_hex op) (Tt.to_hex got);
        if single op && N.num_gates t <> 1 then
          Alcotest.failf "%s: op 0x%s takes %d gates, not 1" name (Tt.to_hex op)
            (N.num_gates t)
      done
    done
end

let test_decode_every_op () =
  let module A = Decode_all_ops (Network.Aig) in
  let module M = Decode_all_ops (Network.Mig) in
  (* an AND with complemented inputs and/or output *)
  let and_like op =
    Tt.num_vars op = 2 && (Tt.count_ones op = 1 || Tt.count_ones op = 3)
  in
  let maj = Tt.(maj (nth_var 3 0) (nth_var 3 1) (nth_var 3 2)) in
  let maj_like op = List.exists (Tt.equal op) (maj :: List.init 3 (Tt.flip maj)) in
  A.check "aig" ~single:and_like;
  M.check "mig" ~single:(fun op -> and_like op || maj_like op)

let extra_suite =
  [
    Alcotest.test_case "decode into mig" `Quick test_decode_into_mig;
    Alcotest.test_case "decode every 2-/3-input op (aig, mig)" `Quick
      test_decode_every_op;
    Seed.to_alcotest prop_database_decode_sound;
    Alcotest.test_case "chain pp" `Quick test_chain_pp;
  ]

let suite = suite @ extra_suite
