(* Robustness tests for the persistent exact-synthesis store: round-trip,
   torn-tail recovery and healing, corrupt-entry skipping, two writers,
   deduplication, unwritable and unreadable paths, the domain-fingerprint
   guard, and the write format against the shipped tables. *)

open Kitty

(* The store caches what is synthesized on the fly, so these tests use a
   config with no shipped table: the XAG operator set under a larger
   conflict budget. *)
let config = { Exact.Synth.xag_config with conflict_budget = 20_000 }

let fresh_path () =
  let path = Filename.temp_file "genlog_store" ".glxs" in
  Sys.remove path;
  path

(* A handful of 3-variable functions spanning several NPN classes; cheap
   to synthesize under the XAG config. *)
let vals = [ 0x80; 0x96; 0xe8; 0x1e; 0x6a; 0xca ]

let lookup_all db =
  List.iter
    (fun v ->
      ignore (Exact.Database.lookup db (Tt.of_int64 3 (Int64.of_int v))))
    vals

(* Build a store at [path] holding every class [lookup_all] touches;
   returns the class count. *)
let populate path =
  let db = Exact.Database.create ~store:path config in
  lookup_all db;
  Exact.Database.flush db;
  Exact.Database.size db

(* The classes [lookup_all] touches, one store entry each, as [db]
   answers them. *)
let entries_of db =
  List.sort_uniq
    (fun (a : Exact.Store.entry) b ->
      compare (a.num_vars, a.key) (b.num_vars, b.key))
    (List.map
       (fun v ->
         let f = Tt.of_int64 3 (Int64.of_int v) in
         let canonical, _ = Npn.canonize f in
         {
           Exact.Store.num_vars = Tt.num_vars canonical;
           key = Tt.to_hex canonical;
           result = fst (Exact.Database.lookup db f);
         })
       vals)

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> Bytes.of_string (really_input_string ic (in_channel_length ic)))

let write_bytes path b =
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_round_trip () =
  let path = fresh_path () in
  let db = Exact.Database.create ~store:path config in
  lookup_all db;
  let classes = Exact.Database.size db in
  Alcotest.(check bool) "cold run misses" true (Exact.Database.misses db > 0);
  Exact.Database.flush db;
  let db2 = Exact.Database.create ~store:path config in
  Alcotest.(check int) "all classes reloaded" classes (Exact.Database.size db2);
  lookup_all db2;
  Alcotest.(check int) "warm run: zero misses" 0 (Exact.Database.misses db2);
  Alcotest.(check bool) "warm run hits" true (Exact.Database.hits db2 > 0);
  (* both databases answer identically *)
  List.iter
    (fun v ->
      let f = Tt.of_int64 3 (Int64.of_int v) in
      let r1, _ = Exact.Database.lookup db f in
      let r2, _ = Exact.Database.lookup db2 f in
      Alcotest.(check bool) "same result" true (r1 = r2))
    vals;
  Sys.remove path

let test_truncated_tail () =
  let path = fresh_path () in
  let n = populate path in
  let size = (Unix.stat path).Unix.st_size in
  Unix.truncate path (size - 3);
  let l = Exact.Store.load ~config path in
  Alcotest.(check bool) "domain ok" true l.Exact.Store.domain_ok;
  Alcotest.(check int) "torn tail skipped" 1 l.Exact.Store.skipped;
  Alcotest.(check int) "rest loaded" (n - 1) l.Exact.Store.loaded;
  (* a database still attaches and re-synthesizes only the lost class *)
  let db = Exact.Database.create ~store:path config in
  Alcotest.(check int) "merged" (n - 1) (Exact.Database.size db);
  lookup_all db;
  Alcotest.(check bool) "at most one miss" true (Exact.Database.misses db <= 1);
  Sys.remove path

let test_corrupt_entry_skipped () =
  let path = fresh_path () in
  let n = populate path in
  (* flip one payload byte of the first entry: its checksum must fail but
     the frame stays delimited, so every later entry still loads *)
  let b = read_bytes path in
  let off = 12 + 8 + 1 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff));
  write_bytes path b;
  let l = Exact.Store.load ~config path in
  Alcotest.(check bool) "domain ok" true l.Exact.Store.domain_ok;
  Alcotest.(check int) "one skipped" 1 l.Exact.Store.skipped;
  Alcotest.(check int) "others loaded" (n - 1) l.Exact.Store.loaded;
  Sys.remove path

(* Two databases attached to the same path (the in-process equivalent of
   two processes) flush one after the other: the second flush reloads the
   file and keeps the first one's record. *)
let test_two_writers () =
  let path = fresh_path () in
  let db_a = Exact.Database.create ~store:path config in
  let db_b = Exact.Database.create ~store:path config in
  let fa = Tt.of_int64 3 0x80L in
  let fb = Tt.of_int64 3 0x96L in
  ignore (Exact.Database.lookup db_a fa);
  ignore (Exact.Database.lookup db_b fb);
  Exact.Database.flush db_a (* creates the file, writes a's record *);
  Exact.Database.flush db_b (* rewrites it with both records *);
  let db_c = Exact.Database.create ~store:path config in
  ignore (Exact.Database.lookup db_c fa);
  ignore (Exact.Database.lookup db_c fb);
  Alcotest.(check int) "no re-synthesis" 0 (Exact.Database.misses db_c);
  Alcotest.(check int) "both records present" 2 (Exact.Database.hits db_c);
  Sys.remove path

(* A class outside [vals]' classes: XOR of two variables. *)
let extra = Tt.of_int64 2 0x6L

(* A store holding every class twice (as an append log written by an
   earlier build could): the merge dedups, and one flush rewrites the
   file with each class once. *)
let test_compaction_preserves () =
  let path = fresh_path () in
  let n = populate path in
  let l = Exact.Store.load ~config path in
  Exact.Store.write ~config path (l.Exact.Store.entries @ l.Exact.Store.entries);
  let l2 = Exact.Store.load ~config path in
  Alcotest.(check int) "duplicated on disk" (2 * n) l2.Exact.Store.loaded;
  let db = Exact.Database.create ~store:path config in
  Alcotest.(check int) "merge dedups" n (Exact.Database.size db);
  ignore (Exact.Database.lookup db extra);
  Exact.Database.flush db;
  let l3 = Exact.Store.load ~config path in
  Alcotest.(check int) "each class once" (n + 1) l3.Exact.Store.loaded;
  Alcotest.(check int) "nothing skipped" 0 l3.Exact.Store.skipped;
  Alcotest.(check int) "flushed counts the new class" 1
    (Exact.Database.store_info db).Exact.Database.flushed;
  let db2 = Exact.Database.create ~store:path config in
  lookup_all db2;
  ignore (Exact.Database.lookup db2 extra);
  Alcotest.(check int) "contents preserved" 0 (Exact.Database.misses db2);
  Sys.remove path

(* A flush over a store with a torn tail rewrites it whole: the reload
   skips nothing and misses nothing. *)
let test_flush_heals () =
  let path = fresh_path () in
  let n = populate path in
  let size = (Unix.stat path).Unix.st_size in
  Unix.truncate path (size - 3);
  let db = Exact.Database.create ~store:path config in
  lookup_all db;
  Alcotest.(check int) "torn class re-synthesized" 1 (Exact.Database.misses db);
  Exact.Database.flush db;
  let l = Exact.Store.load ~config path in
  Alcotest.(check int) "healed: all loaded" n l.Exact.Store.loaded;
  Alcotest.(check int) "healed: nothing skipped" 0 l.Exact.Store.skipped;
  let db2 = Exact.Database.create ~store:path config in
  lookup_all db2;
  Alcotest.(check int) "healed store is warm" 0 (Exact.Database.misses db2);
  Sys.remove path

(* A path that cannot be read as a store detaches the database, with a
   warning, instead of raising. *)
let test_unreadable_path_detaches () =
  let dir = Filename.get_temp_dir_name () in
  let db = Exact.Database.create ~store:dir config in
  Alcotest.(check bool) "detached" true
    ((Exact.Database.store_info db).Exact.Database.path = None);
  ignore (Exact.Database.lookup db extra);
  Exact.Database.flush db (* no-op: detached *)

(* A flush into a directory that does not exist warns and returns. *)
let test_flush_missing_dir () =
  let path = Filename.concat (fresh_path ()) "store.glxs" in
  let db = Exact.Database.create ~store:path config in
  ignore (Exact.Database.lookup db extra);
  Exact.Database.flush db;
  Alcotest.(check bool) "nothing written" false (Sys.file_exists path);
  Alcotest.(check int) "nothing flushed" 0
    (Exact.Database.store_info db).Exact.Database.flushed

(* [Store.write] of each decoded shipped table gives back its bytes: the
   writer and the committed format agree, without re-synthesizing. *)
let test_write_reproduces_tables () =
  List.iter
    (fun (name, rep) ->
      let module R = (val Flow.Engine.representation rep) in
      let path = fresh_path () in
      Exact.Store.write ~config:R.synth path
        (Option.get (Exact.Tables.find R.synth));
      Alcotest.(check bool)
        (name ^ ".glxs byte for byte")
        true
        (Bytes.to_string (read_bytes path)
        = List.assoc name Exact.Tables.files);
      Sys.remove path)
    Flow.Run_config.representations

(* A store written under one synthesis config must not feed a database
   with a different one (here the MIG operator set, again with no shipped
   table): the fingerprint detaches it, data intact.  The
   fingerprint of every preset is pinned, so a change to [Synth.config]
   that would detach existing .glxs caches fails here. *)
let test_domain_mismatch_detaches () =
  List.iter
    (fun (name, cfg, want) ->
      Alcotest.(check string)
        (name ^ " fingerprint") want
        (Printf.sprintf "%08lx" (Exact.Store.fingerprint cfg)))
    Exact.Synth.
      [
        ("aig", aig_config, "9ec88cf0");
        ("xag", xag_config, "8a6e75cf");
        ("mig", mig_config, "8a0691ae");
        ("xmg", xmg_config, "7176e086");
      ];
  let path = fresh_path () in
  let n = populate path in
  let db =
    Exact.Database.create ~store:path
      { Exact.Synth.mig_config with conflict_budget = 20_000 }
  in
  Alcotest.(check int) "nothing merged" 0 (Exact.Database.size db);
  let si = Exact.Database.store_info db in
  Alcotest.(check bool) "detached" true (si.Exact.Database.path = None);
  ignore (Exact.Database.lookup db (Tt.of_int64 3 0xe8L));
  Exact.Database.flush db (* no-op: detached *);
  let l = Exact.Store.load ~config path in
  Alcotest.(check int) "original store untouched" n l.Exact.Store.loaded;
  Sys.remove path

(* -- injected crash points (the fault registry) -- *)

let with_faults spec f =
  (match Flow.Fault.configure spec with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Flow.Fault.disable f

(* A write that crashes after writing the temp file but before the
   rename must leave the original store untouched. *)
let test_injected_write_crash () =
  let path = fresh_path () in
  let n = populate path in
  let entries = entries_of (Exact.Database.create ~store:path config) in
  with_faults "store.write:1:1" (fun () ->
      Exact.Store.write ~config path entries;
      Alcotest.(check bool) "fault fired" true (Flow.Fault.fired ()));
  let l = Exact.Store.load ~config path in
  Alcotest.(check int) "original intact" n l.Exact.Store.loaded;
  Alcotest.(check int) "nothing skipped" 0 l.Exact.Store.skipped;
  (* no leftover temp files *)
  let dir = Filename.dirname path and base = Filename.basename path in
  Array.iter
    (fun f ->
      Alcotest.(check bool)
        ("no temp residue: " ^ f)
        false
        (String.length f > String.length base
        && String.sub f 0 (String.length base) = base))
    (Sys.readdir dir);
  (* the next, un-faulted write succeeds *)
  Exact.Store.write ~config path entries;
  let l2 = Exact.Store.load ~config path in
  Alcotest.(check int) "clean write" n l2.Exact.Store.loaded;
  Sys.remove path

let suite =
  [
    Alcotest.test_case "write -> reopen round-trip" `Quick test_round_trip;
    Alcotest.test_case "truncated tail recovered" `Quick test_truncated_tail;
    Alcotest.test_case "corrupt entry skipped" `Quick test_corrupt_entry_skipped;
    Alcotest.test_case "two writers lose nothing" `Quick test_two_writers;
    Alcotest.test_case "compaction preserves contents" `Quick
      test_compaction_preserves;
    Alcotest.test_case "domain mismatch detaches" `Quick
      test_domain_mismatch_detaches;
    Alcotest.test_case "flush heals a torn tail" `Quick test_flush_heals;
    Alcotest.test_case "injected write crash keeps original" `Quick
      test_injected_write_crash;
    Alcotest.test_case "unreadable path detaches" `Quick
      test_unreadable_path_detaches;
    Alcotest.test_case "flush into a missing dir warns" `Quick
      test_flush_missing_dir;
    Alcotest.test_case "write reproduces the shipped tables" `Quick
      test_write_reproduces_tables;
  ]
