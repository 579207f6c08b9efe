(* On-disk persistence for the exact-synthesis database.

   Format and crash-safety argument are documented in store.mli and
   DESIGN.md.  Invariants the code below maintains:

   - a file is only ever written whole: header and frames go to a temp
     file, which is fsync'd and renamed over the target;
   - reading validates every frame (checksum, decode, semantic check of
     the decoded network against its key) and skips what fails — a store
     file can make a load slower or smaller, never wrong, and never
     crashes the process. *)

open Kitty

type entry = { num_vars : int; key : string; result : Synth.result }

type load_result = {
  entries : entry list;
  loaded : int;
  skipped : int;
  domain_ok : bool;
}

let magic = "GLXS0001"
let header_size = String.length magic + 4
let max_payload = 1 lsl 24 (* sanity bound when reading length fields *)

(* ---------------------------------------------------------------- CRC-32 *)

(* Built eagerly: [crc32] runs inside parallel workers, where forcing a
   shared lazy value from two domains at once raises. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xedb88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      !c)

let crc32 s =
  let c = ref 0xffffffffl in
  String.iter
    (fun ch ->
      let idx =
        Int32.to_int
          (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xffl)
      in
      c := Int32.logxor crc_table.(idx) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xffffffffl

let fingerprint (config : Synth.config) =
  let b = Buffer.create 64 in
  Buffer.add_string b (string_of_int config.Synth.arity);
  Buffer.add_char b '|';
  List.iter
    (fun op ->
      Buffer.add_string b (Tt.to_hex op);
      Buffer.add_char b ',')
    config.Synth.allowed_ops;
  Buffer.add_string b (if config.Synth.allow_constant then "|c|" else "|-|");
  Buffer.add_string b (string_of_int config.Synth.max_gates);
  Buffer.add_char b '|';
  Buffer.add_string b (string_of_int config.Synth.conflict_budget);
  crc32 (Buffer.contents b)

let warn path fmt = Printf.eprintf ("[exact-store] %s: " ^^ fmt ^^ "\n%!") path

(* --------------------------------------------------------------- encoding *)

let encode_result buf = function
  | Synth.Const false -> Buffer.add_uint8 buf 0
  | Synth.Const true -> Buffer.add_uint8 buf 1
  | Synth.Projection (v, compl_) ->
    Buffer.add_uint8 buf 2;
    Buffer.add_uint8 buf v;
    Buffer.add_uint8 buf (if compl_ then 1 else 0)
  | Synth.Failed -> Buffer.add_uint8 buf 3
  | Synth.Chain c ->
    Buffer.add_uint8 buf 4;
    Buffer.add_uint8 buf c.Chain.num_inputs;
    Buffer.add_uint8 buf (if c.Chain.out_complement then 1 else 0);
    Buffer.add_uint16_le buf (Array.length c.Chain.steps);
    Array.iter
      (fun (s : Chain.step) ->
        Buffer.add_uint8 buf (Array.length s.Chain.fanins);
        Array.iter (Buffer.add_uint16_le buf) s.Chain.fanins;
        let hex = Tt.to_hex s.Chain.op in
        Buffer.add_uint16_le buf (String.length hex);
        Buffer.add_string buf hex)
      c.Chain.steps

let encode (e : entry) =
  let b = Buffer.create 64 in
  Buffer.add_uint8 b e.num_vars;
  Buffer.add_int32_le b (Int32.of_int (String.length e.key));
  Buffer.add_string b e.key;
  encode_result b e.result;
  Buffer.contents b

let frame payload =
  let b = Buffer.create (String.length payload + 8) in
  Buffer.add_int32_le b (Int32.of_int (String.length payload));
  Buffer.add_int32_le b (crc32 payload);
  Buffer.add_string b payload;
  Buffer.contents b

(* --------------------------------------------------------------- decoding *)

exception Corrupt

let decode_entry payload =
  let len = String.length payload in
  let pos = ref 0 in
  let u8 () =
    if !pos >= len then raise Corrupt;
    let v = Char.code payload.[!pos] in
    incr pos;
    v
  in
  let u16 () =
    if !pos + 2 > len then raise Corrupt;
    let v = String.get_uint16_le payload !pos in
    pos := !pos + 2;
    v
  in
  let u32 () =
    if !pos + 4 > len then raise Corrupt;
    let v = Int32.to_int (String.get_int32_le payload !pos) in
    pos := !pos + 4;
    if v < 0 || v > max_payload then raise Corrupt;
    v
  in
  let str n =
    if !pos + n > len then raise Corrupt;
    let s = String.sub payload !pos n in
    pos := !pos + n;
    s
  in
  let num_vars = u8 () in
  let key = str (u32 ()) in
  let result =
    match u8 () with
    | 0 -> Synth.Const false
    | 1 -> Synth.Const true
    | 2 ->
      let v = u8 () in
      let compl_ = u8 () in
      Synth.Projection (v, compl_ = 1)
    | 3 -> Synth.Failed
    | 4 ->
      let num_inputs = u8 () in
      let out_complement = u8 () = 1 in
      let nsteps = u16 () in
      let dummy = { Chain.fanins = [||]; op = Tt.create 0 } in
      let steps = Array.make nsteps dummy in
      for i = 0 to nsteps - 1 do
        let k = u8 () in
        let fanins = Array.make k 0 in
        for j = 0 to k - 1 do
          fanins.(j) <- u16 ()
        done;
        let hex = str (u16 ()) in
        let op =
          match Tt.of_hex k hex with
          | op -> op
          | exception Invalid_argument _ -> raise Corrupt
        in
        steps.(i) <- { Chain.fanins; op }
      done;
      Synth.Chain { Chain.num_inputs; steps; out_complement }
    | _ -> raise Corrupt
  in
  if !pos <> len then raise Corrupt;
  { num_vars; key; result }

(* An entry vouches for itself: the decoded result must actually compute
   the function named by the key.  This turns any surviving corruption (or
   a hand-edited file) into a skipped entry instead of a wrong rewrite. *)
let valid (e : entry) =
  e.num_vars >= 0 && e.num_vars <= Tt.max_vars
  &&
  match Tt.of_hex e.num_vars e.key with
  | exception Invalid_argument _ -> false
  | f -> (
    match e.result with
    | Synth.Const b ->
      Tt.equal f (if b then Tt.const1 e.num_vars else Tt.const0 e.num_vars)
    | Synth.Projection (v, compl_) ->
      v >= 0 && v < e.num_vars
      &&
      let p = Tt.nth_var e.num_vars v in
      Tt.equal f (if compl_ then Tt.( ~: ) p else p)
    | Synth.Failed -> true
    | Synth.Chain c ->
      c.Chain.num_inputs = e.num_vars
      && (let ok = ref true in
          Array.iteri
            (fun i (s : Chain.step) ->
              Array.iter
                (fun j -> if j < 0 || j > e.num_vars + i then ok := false)
                s.Chain.fanins)
            c.Chain.steps;
          !ok)
      && (match Chain.simulate c with
         | g -> Tt.equal f g
         | exception _ -> false))

(* ------------------------------------------------------------------- load *)

let empty_load = { entries = []; loaded = 0; skipped = 0; domain_ok = true }

let header_fingerprint data =
  if
    String.length data < header_size
    || String.sub data 0 (String.length magic) <> magic
  then None
  else Some (String.get_int32_le data (String.length magic))

let decode ~config ~source data =
  let n = String.length data in
  if n = 0 then empty_load
  else
    match header_fingerprint data with
    | None ->
      warn source "unrecognized header; ignoring store";
      { empty_load with domain_ok = false }
    | Some fp when fp <> fingerprint config ->
      warn source
        "synthesis-domain fingerprint mismatch (store %08lx, config %08lx); \
         ignoring store"
        fp (fingerprint config);
      { empty_load with domain_ok = false }
    | Some _ ->
      let entries = ref [] in
      let loaded = ref 0 in
      let skipped = ref 0 in
      let pos = ref header_size in
      let stop = ref false in
      while (not !stop) && !pos + 8 <= n do
        let len = Int32.to_int (String.get_int32_le data !pos) in
        let crc = String.get_int32_le data (!pos + 4) in
        if len < 0 || len > max_payload || !pos + 8 + len > n then begin
          (* implausible length or not enough bytes left: a torn tail
             write (or corruption of the length field itself) — nothing
             after this point can be re-framed reliably *)
          incr skipped;
          stop := true
        end
        else begin
          let payload = String.sub data (!pos + 8) len in
          (if crc32 payload <> crc then incr skipped
           else
             match decode_entry payload with
             | exception Corrupt -> incr skipped
             | e ->
               if valid e then begin
                 entries := e :: !entries;
                 incr loaded
               end
               else incr skipped);
          pos := !pos + 8 + len
        end
      done;
      if (not !stop) && !pos < n then incr skipped (* trailing runt *);
      if !skipped > 0 then
        warn source "skipped %d corrupt or truncated entr%s (%d loaded)"
          !skipped
          (if !skipped = 1 then "y" else "ies")
          !loaded;
      {
        entries = List.rev !entries;
        loaded = !loaded;
        skipped = !skipped;
        domain_ok = true;
      }

let load ~config path =
  if not (Sys.file_exists path) then empty_load
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | data -> decode ~config ~source:path data
    | exception Sys_error msg ->
      warn path "cannot read store (%s); ignoring store" msg;
      { empty_load with domain_ok = false }

(* ------------------------------------------------------------------ write *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let write ~config path entries =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  (try
     let b = Buffer.create 4096 in
     Buffer.add_string b magic;
     Buffer.add_int32_le b (fingerprint config);
     List.iter (fun e -> Buffer.add_string b (frame (encode e))) entries;
     write_all fd (Buffer.contents b);
     Unix.fsync fd;
     Unix.close fd
   with exn ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     raise exn);
  (* [store.write] fault point: simulate a crash after the temp file is
     durable but before the rename commits — the original store must
     survive untouched (which is the whole point of tmp+fsync+rename) *)
  if Fault_core.active () && Fault_core.hit "store.write" then
    try Sys.remove tmp with Sys_error _ -> ()
  else Unix.rename tmp path
