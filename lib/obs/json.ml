(* The one JSON codec of the observability artifacts this repo writes
   (TRACE_*.jsonl, BENCH_*.json, Chrome traces): every writer builds a
   [t] and renders it with [render], and [report] reads the files back
   with [parse].  No external dependency: a recursive-descent parser and
   a compact writer.  Numbers are floats (the artifacts only hold
   scalars), objects preserve key order. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail msg = raise (Parse_error msg)

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected '%c' at %d" c !pos)
  in
  let literal word v =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      v
    end
    else fail (Printf.sprintf "bad literal at %d" !pos)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char b '"'
             | '\\' -> Buffer.add_char b '\\'
             | '/' -> Buffer.add_char b '/'
             | 'n' -> Buffer.add_char b '\n'
             | 't' -> Buffer.add_char b '\t'
             | 'r' -> Buffer.add_char b '\r'
             | 'b' -> Buffer.add_char b '\b'
             | 'f' -> Buffer.add_char b '\012'
             | 'u' ->
               if !pos + 4 >= n then fail "bad \\u escape";
               let hex = String.sub s (!pos + 1) 4 in
               let code =
                 try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
               in
               (* the artifacts only escape control characters, which are
                  single-byte; anything else degrades to '?' *)
               if code < 0x80 then Buffer.add_char b (Char.chr code)
               else Buffer.add_char b '?';
               pos := !pos + 4
             | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          advance ();
          go ()
        | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let numchar c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && numchar s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail (Printf.sprintf "bad number at %d" start)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail (Printf.sprintf "expected ',' or '}' at %d" !pos)
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail (Printf.sprintf "expected ',' or ']' at %d" !pos)
        in
        Arr (elements [])
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail (Printf.sprintf "trailing input at %d" !pos);
  v

let parse_file path = parse (In_channel.with_open_bin path In_channel.input_all)

(* -- accessors -- *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_num = function
  | Num f -> Some f
  | _ -> None

let to_string = function
  | Str s -> Some s
  | _ -> None

let to_list = function
  | Arr l -> Some l
  | _ -> None

let num_member key j = Option.bind (member key j) to_num
let str_member key j = Option.bind (member key j) to_string
let int_member key j = Option.map int_of_float (num_member key j)

(* -- compact writer --

   One-line rendering, the inverse of [parse] for the values this repo
   produces.  Integers print without a fractional part, so counts stay
   byte-stable under parse/render round trips; other numbers print with
   6 decimals, and non-finite ones (which JSON cannot spell) as null. *)

let escape_string s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec render = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f when not (Float.is_finite f) -> "null"
  | Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.6f" f
  | Str s -> "\"" ^ escape_string s ^ "\""
  | Arr l -> "[" ^ String.concat "," (List.map render l) ^ "]"
  | Obj kvs ->
    let member (k, v) = render (Str k) ^ ":" ^ render v in
    "{" ^ String.concat "," (List.map member kvs) ^ "}"

(* constructors for the writers *)
let int n = Num (float_of_int n)
let ints kvs = Obj (List.map (fun (k, v) -> (k, int v)) kvs)
