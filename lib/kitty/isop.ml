(* Irredundant sum-of-products via the Minato–Morreale algorithm.

   [isop lower upper] returns a cube cover [F] with lower <= F <= upper
   (as Boolean functions) and its table; passing the same table for both
   yields an ISOP of that function.  The recursion splits on the top-most
   variable present in either bound. *)

let rec top_var lower upper i =
  if i < 0 then -1
  else if Tt.has_var lower i || Tt.has_var upper i then i
  else top_var lower upper (i - 1)

let rec isop lower upper =
  if Tt.is_const0 lower then ([], Tt.const0 (Tt.num_vars lower))
  else if Tt.is_const1 upper then ([ Cube.one ], Tt.const1 (Tt.num_vars upper))
  else begin
    let n = Tt.num_vars lower in
    let v = top_var lower upper (n - 1) in
    assert (v >= 0);
    let l0 = Tt.cofactor0 lower v and l1 = Tt.cofactor1 lower v in
    let u0 = Tt.cofactor0 upper v and u1 = Tt.cofactor1 upper v in
    (* Cubes that must carry literal !v / v respectively. *)
    let f_neg, tt_neg = isop Tt.(l0 &: ~:u1) u0 in
    let f_pos, tt_pos = isop Tt.(l1 &: ~:u0) u1 in
    (* Remaining on-set minterms, coverable without a literal on [v]. *)
    let l0' = Tt.(l0 &: ~:tt_neg) and l1' = Tt.(l1 &: ~:tt_pos) in
    let f_var, tt_var = isop Tt.(l0' |: l1') Tt.(u0 &: u1) in
    let cubes =
      List.map (fun c -> Cube.add_literal c v false) f_neg
      @ List.map (fun c -> Cube.add_literal c v true) f_pos
      @ f_var
    in
    let var_tt = Tt.nth_var n v in
    let tt =
      Tt.(
        (tt_neg &: ~:var_tt) |: (tt_pos &: var_tt) |: tt_var)
    in
    (cubes, tt)
  end

(* ISOP of a completely specified function. *)
let of_tt f =
  let cubes, tt = isop f f in
  assert (Tt.equal tt f);
  cubes
