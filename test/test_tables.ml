(* Integrity of the shipped 4-input NPN tables (lib/exact/tables): each
   holds exactly the 243 canonical classes of 0..4 variables, is pinned to
   its preset by fingerprint, decodes without a skipped record (the store
   re-simulates every record against its key), and agrees with on-the-fly
   synthesis where that is cheap to check.  A rewrite pass under each
   preset then needs no synthesis at all. *)

open Kitty
open Network

let data name =
  match List.assoc_opt name Exact.Tables.files with
  | Some d -> d
  | None -> Alcotest.fail ("no shipped table " ^ name)

let entries name config =
  let l = Exact.Store.decode ~config ~source:name (data name) in
  Alcotest.(check bool) (name ^ ": domain ok") true l.Exact.Store.domain_ok;
  Alcotest.(check int) (name ^ ": nothing skipped") 0 l.Exact.Store.skipped;
  l.Exact.Store.entries

let test_table name config () =
  Alcotest.(check (option int32))
    "fingerprint matches the preset"
    (Some (Exact.Store.fingerprint config))
    (Exact.Store.header_fingerprint (data name));
  let es = entries name config in
  let keys =
    List.sort_uniq compare
      (List.map (fun (e : Exact.Store.entry) -> (e.num_vars, e.key)) es)
  in
  Alcotest.(check int) "243 records" 243 (List.length es);
  Alcotest.(check int) "243 distinct keys" 243 (List.length keys);
  List.iter
    (fun (e : Exact.Store.entry) ->
      let f = Tt.of_hex e.num_vars e.key in
      Alcotest.(check string) "key is canonical" e.key
        (Tt.to_hex (fst (Npn.canonize f)));
      let cheap =
        e.num_vars <= 3
        ||
        match e.result with
        | Exact.Synth.Chain c -> Exact.Chain.size c <= 4
        | _ -> false
      in
      if cheap then
        Alcotest.(check bool)
          (Printf.sprintf "%d:%s equals on-the-fly synthesis" e.num_vars e.key)
          true
          (e.result = Exact.Synth.synthesize config f))
    es;
  match Exact.Tables.find config with
  | Some found -> Alcotest.(check bool) "find returns the table" true (found = es)
  | None -> Alcotest.fail "find: no table for the preset"

let test_no_table_for_other_configs () =
  Alcotest.(check bool) "budget change: no table" true
    (Exact.Tables.find
       { Exact.Synth.aig_config with conflict_budget = 20_000 }
    = None);
  Alcotest.(check int) "database starts empty" 0
    (Exact.Database.size
       (Exact.Database.create
          { Exact.Synth.xmg_config with max_gates = 6 }))

(* Databases created concurrently from two domains each get the whole
   table, and their own copy of it. *)
let test_concurrent_create () =
  let config = Exact.Synth.xag_config in
  let ds =
    List.init 2 (fun _ -> Domain.spawn (fun () -> Exact.Database.create config))
  in
  let dbs = List.map Domain.join ds in
  List.iter
    (fun db -> Alcotest.(check int) "seeded" 243 (Exact.Database.size db))
    dbs;
  let a = List.hd dbs in
  ignore (Exact.Database.lookup a (Tt.of_hex 5 "96696996"));
  Alcotest.(check int) "copies are independent" 243
    (Exact.Database.size (List.nth dbs 1))

(* One rewrite pass on ctrl under each representation's preset: every cut
   function is in the table, so no lookup misses and exact synthesis runs
   no SAT call. *)
let rewrite_needs_no_synthesis rep () =
  let module R = (val Flow.Engine.representation rep) in
  let module Rw = Algo.Rewrite.Make (R.N) in
  let module S = Lsgen.Suite.Make (Aig) in
  let net = R.of_aig (S.build "ctrl") in
  let db = Exact.Database.create R.synth in
  let calls () = List.assoc "calls" (Exact.Synth.telemetry ()) in
  let before = calls () in
  ignore (Rw.run net ~db ());
  Alcotest.(check int) "no misses" 0 (Exact.Database.misses db);
  Alcotest.(check bool) "lookups hit" true (Exact.Database.hits db > 0);
  Alcotest.(check int) "no synthesis calls" 0 (calls () - before)

(* One row per shipped table: the representation names are the table
   names. *)
let suite =
  let rows = Flow.Run_config.representations in
  List.map
    (fun (name, rep) ->
      let module R = (val Flow.Engine.representation rep) in
      Alcotest.test_case (name ^ " table integrity") `Quick
        (test_table name R.synth))
    rows
  @ [
      Alcotest.test_case "no table for other configs" `Quick
        test_no_table_for_other_configs;
      Alcotest.test_case "concurrent create" `Quick test_concurrent_create;
    ]
  @ List.map
      (fun (name, rep) ->
        Alcotest.test_case (name ^ " rewrite needs no synthesis") `Quick
          (rewrite_needs_no_synthesis rep))
      rows
