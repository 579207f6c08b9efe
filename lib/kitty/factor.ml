(* Algebraic factoring of sum-of-products covers.

   Produces a factored Boolean expression from a cube cover by recursive
   division: first by the common cube of the cover, then by the most
   frequent literal (quick-factor style, after Rajski–Vasudevamurthy).
   Refactoring builds this expression in the target network with the
   network's own gate constructors. *)

type expr =
  | Const of bool
  | Lit of int * bool  (* variable index, complemented? *)
  | And of expr list
  | Or of expr list

let rec pp fmt = function
  | Const b -> Format.fprintf fmt "%d" (if b then 1 else 0)
  | Lit (v, false) -> Format.fprintf fmt "x%d" v
  | Lit (v, true) -> Format.fprintf fmt "!x%d" v
  | And es ->
    Format.fprintf fmt "(%a)"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " & ") pp)
      es
  | Or es ->
    Format.fprintf fmt "(%a)"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " | ") pp)
      es

(* Number of literal occurrences in the expression. *)
let rec literal_count = function
  | Const _ -> 0
  | Lit _ -> 1
  | And es | Or es -> List.fold_left (fun a e -> a + literal_count e) 0 es

let expr_of_cube c =
  match Cube.literals c with
  | [] -> Const true
  | [ (v, pol) ] -> Lit (v, not pol)
  | lits -> And (List.map (fun (v, pol) -> Lit (v, not pol)) lits)

(* Literal occurring in the largest number of cubes; ties broken towards the
   smallest variable/polarity.  Returns [None] when no literal occurs twice.
   Literal [(v, pol)] counts in slot [2 v + pol], so scanning the slots in
   order meets the literals in [(v, pol)] order. *)
let most_frequent_literal cubes =
  let counts = Array.make (2 * Tt.max_vars) 0 in
  List.iter
    (fun (c : Cube.t) ->
      let mask = ref c.mask and v = ref 0 in
      while !mask <> 0 do
        if !mask land 1 = 1 then begin
          let slot = (2 * !v) + ((c.bits lsr !v) land 1) in
          counts.(slot) <- counts.(slot) + 1
        end;
        mask := !mask lsr 1;
        incr v
      done)
    cubes;
  let best = ref (-1) in
  Array.iteri
    (fun slot count ->
      if count >= 2 && (!best < 0 || count > counts.(!best)) then best := slot)
    counts;
  if !best < 0 then None
  else Some ((!best / 2, !best land 1 = 1), counts.(!best))

let rec factor_cubes cubes =
  match cubes with
  | [] -> Const false
  | [ c ] -> expr_of_cube c
  | _ ->
    (* Divide by the common cube first. *)
    let common =
      List.fold_left
        (fun acc c -> Cube.{ bits = acc.bits land c.bits; mask = acc.mask land c.mask land lnot (acc.bits lxor c.bits) })
        (List.hd cubes) (List.tl cubes)
    in
    if common.Cube.mask <> 0 then begin
      let quotient =
        List.map
          (fun c ->
            List.fold_left
              (fun c (v, _) -> Cube.remove_literal c v)
              c (Cube.literals common))
          cubes
      in
      let lit_exprs = List.map (fun (v, pol) -> Lit (v, not pol)) (Cube.literals common) in
      And (lit_exprs @ [ factor_cubes quotient ])
    end
    else begin
      match most_frequent_literal cubes with
      | None -> Or (List.map expr_of_cube cubes)
      | Some ((v, pol), _) ->
        let with_l, without_l =
          List.partition (fun c -> Cube.has_literal c v && Cube.polarity c v = pol) cubes
        in
        let quotient = List.map (fun c -> Cube.remove_literal c v) with_l in
        let divisor = And [ Lit (v, not pol); factor_cubes quotient ] in
        if without_l = [] then divisor
        else Or [ divisor; factor_cubes without_l ]
    end

(* Factored form of a truth table (via ISOP).  Chooses the cheaper of
   factoring f directly or factoring !f and complementing, by literal
   count. *)
let of_tt tt =
  if Tt.is_const0 tt then Const false
  else if Tt.is_const1 tt then Const true
  else factor_cubes (Isop.of_tt tt)

(* Evaluate an expression back to a truth table over [n] variables — used by
   tests to check factoring soundness. *)
let rec to_tt n = function
  | Const false -> Tt.const0 n
  | Const true -> Tt.const1 n
  | Lit (v, false) -> Tt.nth_var n v
  | Lit (v, true) -> Tt.( ~: ) (Tt.nth_var n v)
  | And es -> List.fold_left (fun a e -> Tt.( &: ) a (to_tt n e)) (Tt.const1 n) es
  | Or es -> List.fold_left (fun a e -> Tt.( |: ) a (to_tt n e)) (Tt.const0 n) es
