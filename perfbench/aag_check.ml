(* Output checker for the benchmark, independent of the code under test:
   it parses ASCII AIGER text itself and simulates it with its own
   evaluator, so a bug in the library's reader, writer, networks or
   simulator cannot make a wrong output pass.

   Two circuits are compared output by output on the same input patterns:
   every pattern when a circuit has at most [exhaustive_limit] inputs,
   otherwise [random_words] seeded random 64-bit pattern words. *)

exception Bad_aiger of string

type t = {
  num_inputs : int;
  input_vars : int array;  (* AIGER variable of each input, in order *)
  outputs : int array;     (* output literals *)
  ands : (int * int * int) array;  (* (lhs var, rhs0 lit, rhs1 lit) *)
  max_var : int;
}

let fail fmt = Printf.ksprintf (fun s -> raise (Bad_aiger s)) fmt

let ints_of_line line =
  String.split_on_char ' ' (String.trim line)
  |> List.filter (fun s -> s <> "")
  |> List.map (fun s ->
         match int_of_string_opt s with
         | Some v when v >= 0 -> v
         | _ -> fail "not a literal: %S" s)

let parse (text : string) : t =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
  in
  let lines = Array.of_list lines in
  if Array.length lines = 0 then fail "empty file";
  let m, i, l, o, a =
    match String.split_on_char ' ' (String.trim lines.(0)) with
    | [ "aag"; m; i; l; o; a ] -> (
      match List.map int_of_string_opt [ m; i; l; o; a ] with
      | [ Some m; Some i; Some l; Some o; Some a ] -> (m, i, l, o, a)
      | _ -> fail "bad header")
    | _ -> fail "bad header"
  in
  if l <> 0 then fail "latches not supported";
  if Array.length lines < 1 + i + o + a then fail "truncated file";
  let one k =
    match ints_of_line lines.(k) with [ v ] -> v | _ -> fail "line %d" (k + 1)
  in
  let check_lit x = if x / 2 > m then fail "literal %d out of range" x in
  let input_vars =
    Array.init i (fun k ->
        let x = one (1 + k) in
        if x land 1 = 1 || x = 0 then fail "bad input literal %d" x;
        check_lit x;
        x / 2)
  in
  let outputs =
    Array.init o (fun k ->
        let x = one (1 + i + k) in
        check_lit x;
        x)
  in
  let ands =
    Array.init a (fun k ->
        match ints_of_line lines.(1 + i + o + k) with
        | [ x; y; z ] ->
          if x land 1 = 1 || x = 0 then fail "bad and literal %d" x;
          List.iter check_lit [ x; y; z ];
          (x / 2, y, z)
        | _ -> fail "bad and line %d" (2 + i + o + k))
  in
  { num_inputs = i; input_vars; outputs; ands; max_var = m }

(* Bit-parallel simulation over [words] pattern words per signal.
   [inputs.(k)] holds the words of input [k].  AND gates are evaluated in
   dependency order (an explicit-stack DFS), so the file order does not
   matter; a cycle or an undefined variable is an error. *)
let simulate (c : t) (inputs : Int64.t array array) ~words : Int64.t array array
    =
  let value : Int64.t array option array = Array.make (c.max_var + 1) None in
  value.(0) <- Some (Array.make words 0L);
  Array.iteri (fun k v -> value.(v) <- Some inputs.(k)) c.input_vars;
  let def = Array.make (c.max_var + 1) (-1) in
  Array.iteri (fun k (x, _, _) -> def.(x) <- k) c.ands;
  let state = Array.make (c.max_var + 1) 0 (* 0 new, 1 open, 2 done *) in
  let lit_words x =
    match value.(x / 2) with
    | Some w -> if x land 1 = 1 then Array.map Int64.lognot w else w
    | None -> fail "variable %d has no value" (x / 2)
  in
  let eval v =
    let stack = Stack.create () in
    Stack.push v stack;
    while not (Stack.is_empty stack) do
      let u = Stack.top stack in
      if value.(u) <> None then ignore (Stack.pop stack)
      else if def.(u) < 0 then fail "variable %d is undefined" u
      else begin
        let _, y, z = c.ands.(def.(u)) in
        let pending =
          List.filter (fun w -> value.(w) = None) [ y / 2; z / 2 ]
        in
        if pending = [] then begin
          let wy = lit_words y and wz = lit_words z in
          value.(u) <- Some (Array.init words (fun j -> Int64.logand wy.(j) wz.(j)));
          state.(u) <- 2;
          ignore (Stack.pop stack)
        end
        else if state.(u) = 1 then fail "combinational cycle at variable %d" u
        else begin
          state.(u) <- 1;
          List.iter (fun w -> Stack.push w stack) pending
        end
      end
    done
  in
  Array.map
    (fun x ->
      eval (x / 2);
      lit_words x)
    c.outputs

let exhaustive_limit = 16
let random_words = 64

(* Input pattern words for [n] inputs: the full truth table when n is
   small, seeded random words otherwise. *)
let patterns ~seed n : Int64.t array array * int * Int64.t =
  if n <= exhaustive_limit then begin
    let total = 1 lsl n in
    let words = max 1 (total / 64) in
    let pattern k j =
      (* bit b of word j is assignment index (64 j + b); input k is bit k *)
      let w = ref 0L in
      for b = 0 to 63 do
        let idx = (64 * j) + b in
        if idx < total && (idx lsr k) land 1 = 1 then
          w := Int64.logor !w (Int64.shift_left 1L b)
      done;
      !w
    in
    let mask = if total >= 64 then -1L else Int64.pred (Int64.shift_left 1L total) in
    (Array.init n (fun k -> Array.init words (pattern k)), words, mask)
  end
  else begin
    let rng = Random.State.make [| seed; n |] in
    ( Array.init n (fun _ -> Array.init random_words (fun _ -> Random.State.bits64 rng)),
      random_words,
      -1L )
  end

(* [Ok ()] when [output] implements the same function as [input] on the
   checked patterns, [Error reason] otherwise. *)
let equivalent ~seed ~(input : string) ~(output : string) : (unit, string) result =
  match (parse input, parse output) with
  | exception Bad_aiger msg -> Error ("unreadable AIGER: " ^ msg)
  | a, b ->
    if a.num_inputs <> b.num_inputs then Error "input count differs"
    else if Array.length a.outputs <> Array.length b.outputs then
      Error "output count differs"
    else begin
      let pats, words, mask = patterns ~seed a.num_inputs in
      match (simulate a pats ~words, simulate b pats ~words) with
      | exception Bad_aiger msg -> Error ("unsimulable AIGER: " ^ msg)
      | ya, yb ->
        let bad = ref None in
        Array.iteri
          (fun k wa ->
            if !bad = None then
              Array.iteri
                (fun j w ->
                  if Int64.logand (Int64.logxor w yb.(k).(j)) mask <> 0L then
                    bad := Some k)
                wa)
          ya;
        match !bad with
        | None -> Ok ()
        | Some k -> Error (Printf.sprintf "output %d differs" k)
    end

(* The same text with the first output literal complemented: a function
   that differs from the original on every input pattern. *)
let flip_first_output (text : string) : string =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let c = parse text in
  if Array.length c.outputs = 0 then text
  else begin
    let k = 1 + c.num_inputs in
    lines.(k) <- string_of_int (c.outputs.(0) lxor 1);
    String.concat "\n" (Array.to_list lines)
  end
