(* Bit-parallel truth tables.

   A truth table over [n] variables is one flat byte string: [word_count n]
   64-bit words in native byte order, then one byte holding [n].  Minterm
   [m] (an assignment where bit [i] of [m] is the value of variable [i])
   lives in word [m / 64] at bit [m mod 64].  For [n < 6] the single word
   keeps its unused high bits at zero; every operation re-normalizes so
   that structural equality coincides with functional equality.

   Words are read and written with the unboxed bytes primitives, so a word
   loop allocates nothing and an operation allocates exactly its result
   (one block), as kitty's flat [uint64_t] words do. *)

type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let max_vars = 20

(* Number of 64-bit words used by an [n]-variable table. *)
let word_count n = if n <= 6 then 1 else 1 lsl (n - 6)

(* Mask selecting the meaningful bits of the (single) word when [n <= 6]. *)
let[@inline] word_mask n =
  if n >= 6 then -1L
  else Int64.sub (Int64.shift_left 1L (1 lsl n)) 1L

(* Word [i] lives at byte offset [8 i]; the variable count follows the
   last word. *)
let[@inline] word tt i = get tt (i lsl 3)
let[@inline] set_word tt i w = set tt (i lsl 3) w
let[@inline] words tt = Bytes.length tt lsr 3

let num_vars tt = Char.code (Bytes.unsafe_get tt (Bytes.length tt - 1))
let num_bits tt = 1 lsl num_vars tt

(* An uninitialized table with the shape of [tt]. *)
let blank tt =
  let len = Bytes.length tt in
  let r = Bytes.create len in
  Bytes.unsafe_set r (len - 1) (Bytes.unsafe_get tt (len - 1));
  r

let create n =
  if n < 0 || n > max_vars then
    invalid_arg (Printf.sprintf "Tt.create: num_vars %d out of [0,%d]" n max_vars);
  let w = word_count n in
  let tt = Bytes.make ((w lsl 3) + 1) '\000' in
  Bytes.unsafe_set tt (w lsl 3) (Char.unsafe_chr n);
  tt

let const0 n = create n

let fill tt w =
  for i = 0 to words tt - 1 do
    set_word tt i w
  done

let const1 n =
  let tt = create n in
  fill tt (word_mask n);
  tt

(* Projection word patterns for variables 0..5. *)
let projections =
  [| 0xAAAAAAAAAAAAAAAAL; 0xCCCCCCCCCCCCCCCCL; 0xF0F0F0F0F0F0F0F0L;
     0xFF00FF00FF00FF00L; 0xFFFF0000FFFF0000L; 0xFFFFFFFF00000000L |]

let nth_var n i =
  if i < 0 || i >= n then invalid_arg "Tt.nth_var: variable index out of range";
  let tt = create n in
  if i < 6 then fill tt (Int64.logand projections.(i) (word_mask n))
  else
    for w = 0 to words tt - 1 do
      if (w lsr (i - 6)) land 1 = 1 then set_word tt w (-1L)
    done;
  tt

let copy = Bytes.copy

let get_bit tt m =
  Int64.to_int (Int64.logand (Int64.shift_right_logical (word tt (m lsr 6)) (m land 63)) 1L)

let set_bit tt m =
  let w = m lsr 6 in
  set_word tt w (Int64.logor (word tt w) (Int64.shift_left 1L (m land 63)))

let clear_bit tt m =
  let w = m lsr 6 in
  set_word tt w (Int64.logand (word tt w) (Int64.lognot (Int64.shift_left 1L (m land 63))))

(* Same variable count, same words (the count is the trailing byte). *)
let equal = Bytes.equal

(* Variable count first, then words from word 0 as signed 64-bit
   integers: NPN canonization picks the least table in this order. *)
let compare a b =
  let c = Int.compare (num_vars a) (num_vars b) in
  if c <> 0 then c
  else begin
    let n = words a and i = ref 0 and c = ref 0 in
    while !c = 0 && !i < n do
      let x = word a !i and y = word b !i in
      if x < y then c := -1 else if x > y then c := 1;
      incr i
    done;
    !c
  end

module Tbl = Hashtbl.Make (struct
  type t = Bytes.t

  let equal = Bytes.equal
  let hash = Hashtbl.hash
end)

let is_const0 tt =
  let n = words tt and i = ref 0 in
  while !i < n && word tt !i = 0L do incr i done;
  !i = n

let is_const1 tt =
  let m = word_mask (num_vars tt) in
  let n = words tt and i = ref 0 in
  while !i < n && word tt !i = m do incr i done;
  !i = n

let check a b =
  if num_vars a <> num_vars b then invalid_arg "Tt: num_vars mismatch"

(* One loop per operator: a word function passed as a closure would box
   every word it returns. *)
let ( &: ) a b =
  check a b;
  let r = blank a in
  for i = 0 to words a - 1 do
    set_word r i (Int64.logand (word a i) (word b i))
  done;
  r

let ( |: ) a b =
  check a b;
  let r = blank a in
  for i = 0 to words a - 1 do
    set_word r i (Int64.logor (word a i) (word b i))
  done;
  r

let ( ^: ) a b =
  check a b;
  let r = blank a in
  for i = 0 to words a - 1 do
    set_word r i (Int64.logxor (word a i) (word b i))
  done;
  r

let ( ~: ) a =
  let r = blank a in
  for i = 0 to words a - 1 do
    set_word r i (Int64.lognot (word a i))
  done;
  let n = num_vars a in
  if n < 6 then set_word r 0 (Int64.logand (word r 0) (word_mask n));
  r

(* A complemented operand is its words XORed with all ones. *)
let[@inline] cmask c = if c then -1L else 0L

(* [(if ca then ~:a else a) &: (if cb then ~:b else b)] in one loop. *)
let and_c ca a cb b =
  check a b;
  let r = blank a in
  let mask = word_mask (num_vars a) and ma = cmask ca and mb = cmask cb in
  for i = 0 to words a - 1 do
    set_word r i
      (Int64.logand
         (Int64.logand (Int64.logxor (word a i) ma) (Int64.logxor (word b i) mb))
         mask)
  done;
  r

(* Checks over complemented operands, allocating nothing: each word of
   the outcome is compared under the word mask, so the high bits a
   complemented short table sets never count. *)
let equal_c ca a b =
  check a b;
  let mask = word_mask (num_vars a) and ma = cmask ca in
  let n = words a and i = ref 0 in
  while
    !i < n
    && Int64.logand (Int64.logxor (Int64.logxor (word a !i) ma) (word b !i)) mask
       = 0L
  do
    incr i
  done;
  !i = n

let implies_c ca a cb b =
  check a b;
  let mask = word_mask (num_vars a) and ma = cmask ca and mb = cmask (not cb) in
  let n = words a and i = ref 0 in
  while
    !i < n
    && Int64.logand
         (Int64.logand (Int64.logxor (word a !i) ma) (Int64.logxor (word b !i) mb))
         mask
       = 0L
  do
    incr i
  done;
  !i = n

let and_implies_c ca a cb b cc c =
  check a b;
  check a c;
  let mask = word_mask (num_vars a) and ma = cmask ca and mb = cmask cb
  and mc = cmask (not cc) in
  let n = words a and i = ref 0 in
  while
    !i < n
    && Int64.logand
         (Int64.logand
            (Int64.logand (Int64.logxor (word a !i) ma) (Int64.logxor (word b !i) mb))
            (Int64.logxor (word c !i) mc))
         mask
       = 0L
  do
    incr i
  done;
  !i = n

let or_equal_c ca a cb b t =
  check a b;
  check a t;
  let mask = word_mask (num_vars a) and ma = cmask ca and mb = cmask cb in
  let n = words a and i = ref 0 in
  while
    !i < n
    && Int64.logand
         (Int64.logxor
            (Int64.logor (Int64.logxor (word a !i) ma) (Int64.logxor (word b !i) mb))
            (word t !i))
         mask
       = 0L
  do
    incr i
  done;
  !i = n

let and_equal_c ca a cb b t =
  check a b;
  check a t;
  let mask = word_mask (num_vars a) and ma = cmask ca and mb = cmask cb in
  let n = words a and i = ref 0 in
  while
    !i < n
    && Int64.logand
         (Int64.logxor
            (Int64.logand (Int64.logxor (word a !i) ma) (Int64.logxor (word b !i) mb))
            (word t !i))
         mask
       = 0L
  do
    incr i
  done;
  !i = n

let or_and_equal_c ca a cb b cc c t =
  check a b;
  check a c;
  check a t;
  let mask = word_mask (num_vars a) and ma = cmask ca and mb = cmask cb
  and mc = cmask cc in
  let n = words a and i = ref 0 in
  while
    !i < n
    && Int64.logand
         (Int64.logxor
            (Int64.logor
               (Int64.logxor (word a !i) ma)
               (Int64.logand
                  (Int64.logxor (word b !i) mb)
                  (Int64.logxor (word c !i) mc)))
            (word t !i))
         mask
       = 0L
  do
    incr i
  done;
  !i = n

(* [is_const0 (a &: ~:b)] without building either table. *)
let implies a b = implies_c false a false b

let xnor a b = ~:(a ^: b)
let nand a b = ~:(a &: b)
let nor a b = ~:(a |: b)

(* if-then-else / multiplexer: [i] selects [t] (when 1) or [e] (when 0). *)
let ite i t e = (i &: t) |: (~:i &: e)

let maj a b c = (a &: b) |: (a &: c) |: (b &: c)

let[@inline] popcount64 x =
  let x = Int64.sub x (Int64.logand (Int64.shift_right_logical x 1) 0x5555555555555555L) in
  let x = Int64.add (Int64.logand x 0x3333333333333333L)
            (Int64.logand (Int64.shift_right_logical x 2) 0x3333333333333333L) in
  let x = Int64.logand (Int64.add x (Int64.shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0101010101010101L) 56)

let count_ones tt =
  let acc = ref 0 in
  for i = 0 to words tt - 1 do
    acc := !acc + popcount64 (word tt i)
  done;
  !acc

(* Positive cofactor w.r.t. variable [i]: the result no longer depends on
   [i] but keeps the same number of variables. *)
let cofactor1 tt i =
  let r = copy tt in
  if i < 6 then begin
    let p = projections.(i) and s = 1 lsl i in
    for w = 0 to words r - 1 do
      let hi = Int64.logand (word r w) p in
      set_word r w (Int64.logor hi (Int64.shift_right_logical hi s))
    done
  end else begin
    let d = 1 lsl (i - 6) in
    for w = 0 to words r - 1 do
      if (w lsr (i - 6)) land 1 = 0 then set_word r w (word r (w lor d))
    done
  end;
  r

let cofactor0 tt i =
  let r = copy tt in
  if i < 6 then begin
    let p = projections.(i) and s = 1 lsl i in
    for w = 0 to words r - 1 do
      let lo = Int64.logand (word r w) (Int64.lognot p) in
      set_word r w (Int64.logor lo (Int64.shift_left lo s))
    done
  end else begin
    let d = 1 lsl (i - 6) in
    for w = 0 to words r - 1 do
      if (w lsr (i - 6)) land 1 = 1 then set_word r w (word r (w lxor d))
    done
  end;
  r

(* Do the two cofactors differ?  Compared in place: below 6, each word
   against itself shifted down by the variable's stride (the unused high
   bits of a short table are zero, so they never differ); above, each
   word with the variable at 0 against its partner at 1. *)
let has_var tt i =
  if i >= num_vars tt then false
  else if i < 6 then begin
    let p = Int64.lognot projections.(i) and s = 1 lsl i in
    let n = words tt and w = ref 0 in
    while
      !w < n
      && (let x = word tt !w in
          Int64.logand (Int64.logxor (Int64.shift_right_logical x s) x) p = 0L)
    do
      incr w
    done;
    !w < n
  end
  else begin
    let b = i - 6 in
    let d = 1 lsl b and n = words tt and w = ref 0 in
    while !w < n && ((!w lsr b) land 1 = 1 || word tt !w = word tt (!w lor d)) do
      incr w
    done;
    !w < n
  end

(* List of variables the function actually depends on, ascending. *)
let support tt =
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) (if has_var tt i then i :: acc else acc)
  in
  go (num_vars tt - 1) []

let exists tt i = cofactor0 tt i |: cofactor1 tt i

(* Complement variable [i] in the function: f'(.., x_i, ..) = f(.., !x_i, ..). *)
let flip tt i =
  let r = copy tt in
  if i < 6 then begin
    let p = projections.(i) and s = 1 lsl i in
    for w = 0 to words r - 1 do
      let x = word r w in
      set_word r w
        (Int64.logor
           (Int64.shift_right_logical (Int64.logand x p) s)
           (Int64.logand (Int64.shift_left x s) p))
    done
  end else begin
    let d = 1 lsl (i - 6) in
    for w = 0 to words r - 1 do
      if (w lsr (i - 6)) land 1 = 0 then begin
        let tmp = word r w in
        set_word r w (word r (w lor d));
        set_word r (w lor d) tmp
      end
    done
  end;
  r

(* -- variable moves (kitty's [swap_inplace] / [extend_to]) -- *)

(* Swap variables [i < j] of [tt] in place, word by word: a delta swap
   inside every word when both are below 6, an exchange of bit groups
   between the word pairs that differ in [j] when only [i] is, and an
   exchange of whole words when neither is. *)
let swap_inplace tt i j =
  if j < 6 then begin
    let pi = projections.(i) and pj = projections.(j) in
    (* minterms with x_i = 1, x_j = 0 move up; x_i = 0, x_j = 1 down *)
    let up = Int64.logand pi (Int64.lognot pj)
    and down = Int64.logand (Int64.lognot pi) pj in
    let keep = Int64.lognot (Int64.logor up down) in
    let s = (1 lsl j) - (1 lsl i) in
    for w = 0 to words tt - 1 do
      let x = word tt w in
      set_word tt w
        (Int64.logor (Int64.logand x keep)
           (Int64.logor
              (Int64.shift_left (Int64.logand x up) s)
              (Int64.shift_right_logical (Int64.logand x down) s)))
    done
  end
  else if i < 6 then begin
    let p = projections.(i) and s = 1 lsl i and d = 1 lsl (j - 6) in
    for w = 0 to words tt - 1 do
      if w land d = 0 then begin
        let lo = word tt w and hi = word tt (w lor d) in
        set_word tt w
          (Int64.logor (Int64.logand lo (Int64.lognot p))
             (Int64.logand (Int64.shift_left hi s) p));
        set_word tt (w lor d)
          (Int64.logor (Int64.logand hi p)
             (Int64.shift_right_logical (Int64.logand lo p) s))
      end
    done
  end
  else begin
    let di = 1 lsl (i - 6) and dj = 1 lsl (j - 6) in
    for w = 0 to words tt - 1 do
      if w land di <> 0 && w land dj = 0 then begin
        let w' = w - di + dj in
        let x = word tt w in
        set_word tt w (word tt w');
        set_word tt w' x
      end
    done
  end

(* [tt] over [n >= num_vars tt] variables, independent of the new ones:
   a table of fewer than 6 variables first doubles inside its word, then
   the words repeat. *)
let replicate tt n =
  let k = num_vars tt in
  let r = create n in
  if k < 6 then begin
    let w = ref (word tt 0) in
    for v = k to min n 6 - 1 do
      w := Int64.logor !w (Int64.shift_left !w (1 lsl v))
    done;
    fill r !w
  end
  else begin
    let last = words tt - 1 in
    for w = 0 to words r - 1 do
      set_word r w (word tt (w land last))
    done
  end;
  r

(* [tt] over the variables [from] (ascending ids), re-expressed over the
   ascending superset [into]: variable [i] moves to the index of
   [from.(i)] in [into].  Moving the highest variable first, every target
   index still holds a variable the table does not depend on. *)
let expand tt ~from ~into =
  let k = Array.length from and m = Array.length into in
  if num_vars tt <> k || m < k then invalid_arg "Tt.expand: bad variable sets";
  if k = m then tt
  else begin
    let r = replicate tt m in
    let p = ref (m - 1) in
    for i = k - 1 downto 0 do
      while into.(!p) <> from.(i) do
        decr p
      done;
      if !p <> i then swap_inplace r i !p;
      decr p
    done;
    r
  end

let swap_vars tt i j =
  let n = num_vars tt in
  if i < 0 || j < 0 || i >= n || j >= n then
    invalid_arg "Tt.swap_vars: variable index out of range";
  let r = copy tt in
  if i <> j then swap_inplace r (min i j) (max i j);
  r

(* Apply variable permutation [perm]: result g with
   g(x_0,...,x_{n-1}) = f(x_{perm.(0)}, ..., x_{perm.(n-1)}).
   Equivalently minterm m of f maps to the minterm of g where the bit that
   was at position perm.(i) moves to position i. *)
let permute tt perm =
  let n = num_vars tt in
  if Array.length perm <> n then invalid_arg "Tt.permute: bad permutation size";
  let r = create n in
  for m = 0 to (1 lsl n) - 1 do
    (* f-minterm m corresponds to the g-minterm where the value of f's
       variable i appears at position perm.(i). *)
    let m' = ref 0 in
    for i = 0 to n - 1 do
      if (m lsr i) land 1 = 1 then m' := !m' lor (1 lsl perm.(i))
    done;
    if get_bit tt m = 1 then set_bit r !m'
  done;
  r

(* Extend to [n] variables (new variables are don't-care / unused). *)
let extend tt n =
  let k = num_vars tt in
  if n < k then invalid_arg "Tt.extend: shrinking"
  else if n = k then copy tt
  else replicate tt n

(* Shrink to [n] variables; variables >= n must not be in the support. *)
let shrink tt n =
  if n > num_vars tt then invalid_arg "Tt.shrink: growing"
  else begin
    let r = create n in
    for m = 0 to (1 lsl n) - 1 do
      if get_bit tt m = 1 then set_bit r m
    done;
    r
  end

(* Compose: substitute functions for the variables of [f].
   [apply f args] where [args.(i)] is the truth table (all over the same
   variable count [m]) standing for variable [i] of [f]. *)
let apply f args =
  let k = num_vars f in
  if Array.length args <> k then invalid_arg "Tt.apply: arity mismatch";
  if k = 0 then
    (if is_const1 f then const1 0 else const0 0)
  else begin
    let m = num_vars args.(0) in
    let acc = ref (const0 m) in
    for minterm = 0 to (1 lsl k) - 1 do
      if get_bit f minterm = 1 then begin
        let cube = ref (const1 m) in
        for i = 0 to k - 1 do
          let lit = if (minterm lsr i) land 1 = 1 then args.(i) else ~:(args.(i)) in
          cube := !cube &: lit
        done;
        acc := !acc |: !cube
      end
    done;
    !acc
  end

(* Hex string, most significant nibble first (kitty convention). *)
let to_hex tt =
  let n = num_vars tt in
  if n < 2 then
    (* fewer than 4 bits: one nibble *)
    Printf.sprintf "%x" (Int64.to_int (word tt 0))
  else
    String.init (1 lsl (n - 2)) (fun k ->
        let i = (1 lsl (n - 2)) - 1 - k in
        let v =
          Int64.to_int
            (Int64.logand (Int64.shift_right_logical (word tt (i lsr 4)) ((i land 15) lsl 2)) 0xFL)
        in
        "0123456789abcdef".[v])

let of_hex n s =
  let tt = create n in
  let nibbles = max 1 ((1 lsl n) / 4) in
  if String.length s <> nibbles then invalid_arg "Tt.of_hex: bad length";
  String.iteri
    (fun i c ->
      let v =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> invalid_arg "Tt.of_hex: bad character"
      in
      let idx = nibbles - 1 - i in
      for b = 0 to 3 do
        let m = idx * 4 + b in
        if (v lsr b) land 1 = 1 && m < 1 lsl n then set_bit tt m
      done)
    s;
  tt

let pp fmt tt = Format.fprintf fmt "0x%s" (to_hex tt)

(* For tables of up to 6 variables: raw word access (low bits meaningful). *)
let to_int64 tt =
  if num_vars tt > 6 then invalid_arg "Tt.to_int64: more than 6 variables";
  word tt 0

let of_int64 n w =
  if n > 6 then invalid_arg "Tt.of_int64: more than 6 variables";
  let tt = create n in
  set_word tt 0 (Int64.logand w (word_mask n));
  tt
