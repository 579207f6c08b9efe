(* NPN-keyed database of optimal chains.

   Rewriting asks for the optimum implementation of millions of cut
   functions, but only a few hundred NPN classes occur (222 classes for all
   4-variable functions).  Results — or the fact that synthesis gave up —
   are kept under the canonical truth table.  Paper §2.3.2 allows two
   sources for them, and the database uses both:

   - (i) a precomputed database: [create] starts from the shipped table
     for its config ({!Tables}), which covers every class of up to four
     variables for each preset operator set;
   - (ii) exact synthesis on the fly: a class the table does not hold (a
     wider cut, or a config with no table) is synthesized on its first
     lookup and cached, so each is synthesized at most once per database.

   The cache is domain-safe: accesses are mutex-guarded so one database
   can be shared across parallel workers (the portfolio's domains, the
   partition engine's work-stealing pool), which matters because the
   expensive part — SAT-based synthesis of a cold class — would otherwise
   be repeated once per worker.  Synthesis itself runs *outside* the lock:
   two workers missing different classes synthesize concurrently, and the
   rare race where both miss the same class costs one duplicated synthesis
   (the first inserted result wins), never a wrong answer.

   A database can additionally be attached to an on-disk {!Store}: known
   classes are merged in by [create] (table entries win, preserving
   first-insert-wins across the process/disk boundary), and [flush]
   writes the classes synthesized since the last flush.  It reloads the
   file, adds them, and writes the whole store anew, once per batch, not
   per class; a run that synthesized nothing writes nothing.  [flush]
   never writes classes that came from the shipped table. *)

open Kitty

type t = {
  config : Synth.config;
  cache : (string, Synth.result) Hashtbl.t;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable failures : int;
  (* persistence; [store_path = None] means detached (no disk traffic) *)
  mutable store_path : string option;
  mutable pending : Store.entry list; (* newest first; flushed in order *)
  mutable loaded : int; (* entries read from the store by [create] *)
  mutable skipped : int; (* corrupt/truncated entries the load passed over *)
  mutable flushed : int; (* entries [flush] added to the store so far *)
}

(* Cache keys carry the variable count: a bare hex string is ambiguous
   below three variables (0-, 1- and 2-variable tables all print as a
   single nibble). *)
let key_of num_vars hex = string_of_int num_vars ^ ":" ^ hex

let create ?store config =
  let db =
    {
      config;
      cache = Hashtbl.create 512;
      lock = Mutex.create ();
      hits = 0;
      misses = 0;
      failures = 0;
      store_path = None;
      pending = [];
      loaded = 0;
      skipped = 0;
      flushed = 0;
    }
  in
  Option.iter
    (List.iter (fun (e : Store.entry) ->
         Hashtbl.replace db.cache (key_of e.Store.num_vars e.Store.key)
           e.Store.result))
    (Tables.find config);
  Option.iter
    (fun path ->
      let l = Store.load ~config path in
      db.skipped <- l.Store.skipped;
      if l.Store.domain_ok then begin
        db.store_path <- Some path;
        List.iter
          (fun (e : Store.entry) ->
            let k = key_of e.Store.num_vars e.Store.key in
            if not (Hashtbl.mem db.cache k) then
              Hashtbl.replace db.cache k e.Store.result)
          l.Store.entries;
        db.loaded <- l.Store.loaded
      end)
    store;
  db

(* Result for the *canonical* representative of [f]'s NPN class, plus the
   transform mapping [f] to that representative. *)
let lookup db f =
  let canonical, tr = Npn.canonize f in
  let num_vars = Tt.num_vars canonical in
  let hex = Tt.to_hex canonical in
  let key = key_of num_vars hex in
  Mutex.lock db.lock;
  match Hashtbl.find_opt db.cache key with
  | Some e ->
    db.hits <- db.hits + 1;
    Mutex.unlock db.lock;
    (e, tr)
  | None ->
    db.misses <- db.misses + 1;
    Mutex.unlock db.lock;
    let e = Synth.synthesize db.config canonical in
    Mutex.lock db.lock;
    let e =
      match Hashtbl.find_opt db.cache key with
      | Some winner -> winner (* another worker raced us; keep its result *)
      | None ->
        if e = Synth.Failed then db.failures <- db.failures + 1;
        Hashtbl.replace db.cache key e;
        if db.store_path <> None then
          db.pending <- { Store.num_vars; key = hex; result = e } :: db.pending;
        e
    in
    Mutex.unlock db.lock;
    (e, tr)

(* Merge [batch] into the file as it is now, first occurrence winning,
   and write the result whole.  Another process's flush between our load
   and our rename is lost; its classes are re-synthesized by the next
   run that needs them. *)
let flush db =
  Mutex.lock db.lock;
  let path = db.store_path in
  let batch = List.rev db.pending in
  db.pending <- [];
  Mutex.unlock db.lock;
  match path with
  | Some p when batch <> [] ->
    let l = Store.load ~config:db.config p in
    if l.Store.domain_ok then begin
      let seen = Hashtbl.create 256 in
      let fresh (e : Store.entry) =
        let k = key_of e.Store.num_vars e.Store.key in
        (not (Hashtbl.mem seen k)) && (Hashtbl.replace seen k (); true)
      in
      let kept = List.filter fresh l.Store.entries in
      let added = List.filter fresh batch in
      match Store.write ~config:db.config p (kept @ added) with
      | () ->
        Mutex.lock db.lock;
        db.flushed <- db.flushed + List.length added;
        Mutex.unlock db.lock
      | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "[exact-store] %s: cannot write store: %s\n%!" p
          (Unix.error_message e)
    end
  | _ -> ()

let with_lock db f =
  Mutex.lock db.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock db.lock) f

let size db = with_lock db (fun () -> Hashtbl.length db.cache)
let hits db = db.hits
let misses db = db.misses
let failures db = db.failures
let stats db = (db.hits, db.misses, db.failures)

type store_info = {
  path : string option;
  loaded : int;
  skipped : int;
  flushed : int;
  pending : int;
}

let store_info db =
  with_lock db (fun () ->
      {
        path = db.store_path;
        loaded = db.loaded;
        skipped = db.skipped;
        flushed = db.flushed;
        pending = List.length db.pending;
      })

(* Counter snapshot in the shape the obs layer wants (the "exact_db"
   counters event, the run-metadata cache block). *)
let obs_gauges db =
  let si = store_info db in
  [
    ("classes", size db);
    ("hits", db.hits);
    ("misses", db.misses);
    ("failures", db.failures);
    ("store_loaded", si.loaded);
    ("store_skipped", si.skipped);
    ("store_flushed", si.flushed);
    ("store_pending", si.pending);
  ]
