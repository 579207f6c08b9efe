(* Cubes (product terms) over up to 20 variables.

   [mask] has bit [i] set when variable [i] appears in the cube; [bits]
   gives its polarity (only meaningful where [mask] is set).  The constant-1
   cube is [{ bits = 0; mask = 0 }]. *)

type t = {
  bits : int;
  mask : int;
}

let one = { bits = 0; mask = 0 }

let of_literal var polarity =
  { bits = (if polarity then 1 lsl var else 0); mask = 1 lsl var }

let num_literals c =
  let rec pop n acc = if n = 0 then acc else pop (n land (n - 1)) (acc + 1) in
  pop c.mask 0

let has_literal c var = (c.mask lsr var) land 1 = 1

(* Polarity of variable [var]; only valid when [has_literal c var]. *)
let polarity c var = (c.bits lsr var) land 1 = 1

let add_literal c var pol =
  {
    bits = (if pol then c.bits lor (1 lsl var) else c.bits land lnot (1 lsl var));
    mask = c.mask lor (1 lsl var);
  }

let remove_literal c var =
  { bits = c.bits land lnot (1 lsl var); mask = c.mask land lnot (1 lsl var) }

let equal a b = a.bits = b.bits && a.mask = b.mask
(* Field order, as the structural compare of the record: [bits], then
   [mask]. *)
let compare a b =
  let c = Int.compare a.bits b.bits in
  if c <> 0 then c else Int.compare a.mask b.mask

let literals c =
  let rec go i acc =
    if i < 0 then acc
    else if has_literal c i then go (i - 1) ((i, polarity c i) :: acc)
    else go (i - 1) acc
  in
  go 19 []

(* Truth table of the cube over [n] variables. *)
let to_tt n c =
  List.fold_left
    (fun acc (var, pol) ->
      let v = Tt.nth_var n var in
      Tt.( &: ) acc (if pol then v else Tt.( ~: ) v))
    (Tt.const1 n) (literals c)

let pp fmt c =
  if c.mask = 0 then Format.fprintf fmt "1"
  else
    List.iter
      (fun (var, pol) ->
        Format.fprintf fmt "%sx%d" (if pol then "" else "!") var)
      (literals c)

(* Truth table of a sum (OR) of cubes. *)
let sop_to_tt n cubes =
  List.fold_left (fun acc c -> Tt.( |: ) acc (to_tt n c)) (Tt.const0 n) cubes

let sop_literal_count cubes =
  List.fold_left (fun acc c -> acc + num_literals c) 0 cubes
