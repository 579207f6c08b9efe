(* NPN canonization.

   Two functions are NPN-equivalent when one can be obtained from the other
   by Negating inputs, Permuting inputs and/or Negating the output.  The
   canonical representative of a class is the lexicographically smallest
   truth table reachable by such transformations (smallest under
   [Tt.compare]).

   A [transform] describes how a function [f] maps to its canonical form [g]:

     g(x_0, .., x_{n-1}) = out_flip XOR
                           f(x_{perm.(0)} XOR flip_0, ..,
                             x_{perm.(n-1)} XOR flip_{n-1})

   where [flip_i] is bit [i] of [flips].  [apply tr f = g] realizes exactly
   this composition, and [apply_inverse tr g = f] undoes it.

   [canonize] answers every function of up to four variables (the cut
   widths of rewriting) from a per-width memo, so the exhaustive search
   runs once per distinct table. *)

type transform = {
  perm : int array;  (* g reads f's variable i from position perm.(i) *)
  flips : int;       (* bit i set: f's variable i is complemented *)
  out_flip : bool;
}

let identity n = { perm = Array.init n (fun i -> i); flips = 0; out_flip = false }

let apply tr f =
  let n = Tt.num_vars f in
  let f1 = ref (Tt.copy f) in
  for i = 0 to n - 1 do
    if (tr.flips lsr i) land 1 = 1 then f1 := Tt.flip !f1 i
  done;
  let g = Tt.permute !f1 tr.perm in
  if tr.out_flip then Tt.( ~: ) g else g

let inverse_perm perm =
  let n = Array.length perm in
  let inv = Array.make n 0 in
  Array.iteri (fun i p -> inv.(p) <- i) perm;
  inv

let apply_inverse tr g =
  let n = Tt.num_vars g in
  let g = if tr.out_flip then Tt.( ~: ) g else g in
  let f1 = Tt.permute g (inverse_perm tr.perm) in
  let f = ref f1 in
  for i = 0 to n - 1 do
    if (tr.flips lsr i) land 1 = 1 then f := Tt.flip !f i
  done;
  !f

(* Mapping used to instantiate a database structure (stored for the
   canonical form [g]) on concrete cut leaves (inputs of [f]): database
   input [j] must be driven by leaf [fst a.(j)], complemented when
   [snd a.(j)]; the database output is complemented when the returned
   boolean is true. *)
let db_input_assignment tr =
  let inv = inverse_perm tr.perm in
  let a =
    Array.map (fun i -> (i, (tr.flips lsr i) land 1 = 1)) inv
  in
  (a, tr.out_flip)

(* All permutations of [0..n-1]. *)
let permutations n =
  let rec insert_all x = function
    | [] -> [ [ x ] ]
    | y :: ys as l ->
      (x :: l) :: List.map (fun r -> y :: r) (insert_all x ys)
  in
  let rec perms = function
    | [] -> [ [] ]
    | x :: xs -> List.concat_map (insert_all x) (perms xs)
  in
  List.map Array.of_list (perms (List.init n (fun i -> i)))

let exhaustive_limit = 5

(* Exhaustive canonization: minimum over all 2^n * n! * 2 transforms. *)
let canonize_exhaustive f =
  let n = Tt.num_vars f in
  if n > exhaustive_limit then
    invalid_arg "Npn.canonize_exhaustive: too many variables";
  let perms = permutations n in
  let best = ref (Tt.copy f) and best_tr = ref (identity n) in
  List.iter
    (fun perm ->
      for flips = 0 to (1 lsl n) - 1 do
        let tr0 = { perm; flips; out_flip = false } in
        let g0 = apply tr0 f in
        if Tt.compare g0 !best < 0 then begin
          best := g0;
          best_tr := tr0
        end;
        let g1 = Tt.( ~: ) g0 in
        if Tt.compare g1 !best < 0 then begin
          best := g1;
          best_tr := { tr0 with out_flip = true }
        end
      done)
    perms;
  (!best, !best_tr)

(* Memoized canonization for the widths of cut rewriting: one table per
   width [n <= memo_limit], filled lazily and keyed by the table's single
   word (2^(2^n) entries: 65536 at four variables).  Entries are pure
   values of their key, so racing domains can only write equal values and
   the tables need no lock. *)
let memo_limit = 4

let memo : (Tt.t * transform) option array array =
  Array.init (memo_limit + 1) (fun n -> Array.make (1 lsl (1 lsl n)) None)

(* Greedy sifting heuristic for larger functions: repeatedly tries single
   input flips, output flip, and adjacent swaps while the table shrinks
   lexicographically.  Not a true canonical form across the whole NPN class,
   but deterministic and classes collapse well in practice. *)
let canonize_sifting f =
  let n = Tt.num_vars f in
  let best = ref (Tt.copy f) and best_tr = ref (identity n) in
  let try_tr tr =
    let g = apply tr f in
    if Tt.compare g !best < 0 then begin
      best := g;
      best_tr := tr;
      true
    end
    else false
  in
  let improved = ref true in
  while !improved do
    improved := false;
    let base = !best_tr in
    (* output flip *)
    if try_tr { base with out_flip = not base.out_flip } then improved := true;
    (* single input flips *)
    for i = 0 to n - 1 do
      if try_tr { base with flips = base.flips lxor (1 lsl i) } then
        improved := true
    done;
    (* adjacent transpositions of the permutation *)
    for i = 0 to n - 2 do
      let perm = Array.copy base.perm in
      let t = perm.(i) in
      perm.(i) <- perm.(i + 1);
      perm.(i + 1) <- t;
      if try_tr { base with perm } then improved := true
    done
  done;
  (!best, !best_tr)

let canonize f =
  let n = Tt.num_vars f in
  if n <= memo_limit then begin
    let table = memo.(n) and key = Int64.to_int (Tt.to_int64 f) in
    match table.(key) with
    | Some r -> r
    | None ->
      let r = canonize_exhaustive f in
      table.(key) <- Some r;
      r
  end
  else if n <= exhaustive_limit then canonize_exhaustive f
  else canonize_sifting f
