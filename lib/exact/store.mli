(** On-disk persistence for the exact-synthesis database.

    The store is a binary file of NPN-class -> synthesis-result records,
    in the same format as the shipped tables ({!Tables}).
    The file layout is

    {v
      "GLXS0001"            8-byte magic (format version in the name)
      fingerprint           u32 LE, CRC-32 of the synthesis domain
      entry*                frames
    v}

    where each entry frame is

    {v
      length                u32 LE, payload bytes
      checksum              u32 LE, CRC-32 of the payload
      payload               one encoded entry
    v}

    A file is only ever written whole, by {!write}: a crash leaves the
    old file or the new one.  [load] still checks every frame: a torn
    tail is skipped with a warning, and so is each frame whose checksum
    does not match (the length field still delimits it).

    The fingerprint pins the store to a synthesis domain (arity, operator
    set, gate and conflict budgets): results are only valid answers for the
    configuration that produced them, so [load] refuses — without touching
    the file — when the fingerprint disagrees. *)

type entry = {
  num_vars : int;  (** variables of the canonical table *)
  key : string;  (** canonical truth table, kitty hex *)
  result : Synth.result;
}

type load_result = {
  entries : entry list;  (** decoded entries, in file order *)
  loaded : int;  (** [List.length entries] *)
  skipped : int;  (** corrupt or truncated frames that were passed over *)
  domain_ok : bool;  (** header matched [fingerprint config] *)
  warnings : string list;
      (** what the load refused or skipped, one line each, prefixed with
          the path or source; nothing is printed while loading *)
}

val fingerprint : Synth.config -> int32
(** Identity of the synthesis domain a store caches results for.  Covers
    arity, allowed operators, [allow_constant], [max_gates] and
    [conflict_budget] (a result — especially a [Failed] one — is only
    reusable under the budgets that produced it).  The fingerprint of each
    preset is pinned by a test, so caches written by earlier builds stay
    attachable. *)

val load : config:Synth.config -> string -> load_result
(** Read a store file.  A missing or empty file is an empty store.  A file
    with a foreign magic or a mismatched fingerprint, or a path that
    cannot be read, is ignored ([domain_ok = false], with a warning).
    Corrupt frames and a torn tail are skipped with a warning; [load]
    never raises. *)

val decode : config:Synth.config -> source:string -> string -> load_result
(** [load] on the bytes of a store already in memory; [source] names them
    in warnings.  The same checks apply: header, fingerprint, frame
    checksums, and each record must simulate to its key. *)

val print_warnings : load_result -> unit
(** Print each warning of a load on stderr, prefixed [[exact-store]]. *)

val header_fingerprint : string -> int32 option
(** The fingerprint in the header of store bytes, or [None] when they do
    not start with a store header. *)

val write : config:Synth.config -> string -> entry list -> unit
(** Write the store to exactly [entries]: header and frames go to a
    temporary file, which is fsync'd and then renamed over [path], so a
    crash leaves either the old or the new store, never a mix.  Raises
    [Unix.Unix_error] when the file cannot be written. *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3) of a string; exposed for tests. *)
