(* Irredundant sum-of-products via the Minato–Morreale algorithm.

   [isop lower upper] returns a cube cover [F] with lower <= F <= upper
   (as Boolean functions) and its table; passing the same table for both
   yields an ISOP of that function.  The recursion splits on the top-most
   variable present in either bound.

   Tables of at most 6 variables run the same recursion on native ints,
   allocating only the cubes: a table of [n <= 5] variables is the low
   [2^n] bits of an int, and a 6-variable table is split on variable 5
   into two 32-bit halves first.  Both recursions pick the same variable
   at every step and list the cubes in the same order. *)

let rec top_var lower upper i =
  if i < 0 then -1
  else if Tt.has_var lower i || Tt.has_var upper i then i
  else top_var lower upper (i - 1)

(* The cubes of one split on [v]: those that carry !v, then those that
   carry v, then those free of it. *)
let split_cubes v f_neg f_pos f_var =
  List.map (fun c -> Cube.add_literal c v false) f_neg
  @ List.map (fun c -> Cube.add_literal c v true) f_pos
  @ f_var

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
    let var_tt = Tt.nth_var n v in
    let tt =
      Tt.(
        (tt_neg &: ~:var_tt) |: (tt_pos &: var_tt) |: tt_var)
    in
    (split_cubes v f_neg f_pos f_var, tt)
  end

(* -- the single-word recursion, on tables of [n <= 5] variables held in
   the low [2^n] bits of an int -- *)

let projections = [| 0xAAAAAAAA; 0xCCCCCCCC; 0xF0F0F0F0; 0xFF00FF00; 0xFFFF0000 |]

let[@inline] word_mask n = (1 lsl (1 lsl n)) - 1

(* The cofactors differ: each bit with [v] at 0 against its partner at 1
   (bits above the table are zero in both). *)
let[@inline] word_has_var w v =
  (w lxor (w lsr (1 lsl v))) land lnot projections.(v) <> 0

let[@inline] word_cofactor0 w v =
  let lo = w land lnot projections.(v) in
  lo lor (lo lsl (1 lsl v))

let[@inline] word_cofactor1 w v =
  let hi = w land projections.(v) in
  hi lor (hi lsr (1 lsl v))

let rec word_top_var lower upper v =
  if v < 0 then -1
  else if word_has_var lower v || word_has_var upper v then v
  else word_top_var lower upper (v - 1)

let rec word_isop n lower upper =
  if lower = 0 then ([], 0)
  else if upper = word_mask n then ([ Cube.one ], upper)
  else begin
    let v = word_top_var lower upper (n - 1) in
    assert (v >= 0);
    let l0 = word_cofactor0 lower v and l1 = word_cofactor1 lower v in
    let u0 = word_cofactor0 upper v and u1 = word_cofactor1 upper v in
    let f_neg, tt_neg = word_isop n (l0 land lnot u1) u0 in
    let f_pos, tt_pos = word_isop n (l1 land lnot u0) u1 in
    let f_var, tt_var =
      word_isop n ((l0 land lnot tt_neg) lor (l1 land lnot tt_pos)) (u0 land u1)
    in
    let p = projections.(v) land word_mask n in
    ( split_cubes v f_neg f_pos f_var,
      (tt_neg land lnot p) lor (tt_pos land p) lor tt_var )
  end

(* ISOP of a function of at most 6 variables, given as its word.  A
   6-variable function that depends on variable 5 is split on it here,
   as [isop] would split it first; its cofactors, free of variable 5, are
   5-variable words (the low and high halves). *)
let word_of_tt n w =
  let whole n f =
    let cubes, tt = word_isop n f f in
    assert (tt = f);
    cubes
  in
  if n < 6 then whole n (Int64.to_int w)
  else begin
    let lo = Int64.to_int (Int64.logand w 0xFFFFFFFFL)
    and hi = Int64.to_int (Int64.shift_right_logical w 32) in
    if lo = hi then whole 5 lo
    else begin
      let f_neg, tt_neg = word_isop 5 (lo land lnot hi) lo in
      let f_pos, tt_pos = word_isop 5 (hi land lnot lo) hi in
      let f_var, tt_var =
        word_isop 5 ((lo land lnot tt_neg) lor (hi land lnot tt_pos)) (lo land hi)
      in
      assert (tt_neg lor tt_var = lo && tt_pos lor tt_var = hi);
      split_cubes 5 f_neg f_pos f_var
    end
  end

(* ISOP of a completely specified function. *)
let of_tt f =
  let n = Tt.num_vars f in
  if n <= 6 then word_of_tt n (Tt.to_int64 f)
  else begin
    let cubes, tt = isop f f in
    assert (Tt.equal tt f);
    cubes
  end
