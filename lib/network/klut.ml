(* k-LUT networks: every gate carries its own truth table.  Complemented
   fanin signals are folded into the truth table during normalization, so
   internal edges are always positive (complements can still appear on
   primary outputs; writers materialize them as inverter LUTs). *)

open Kitty

let normalize_lut tt fanins =
  let k = Array.length fanins in
  assert (Tt.num_vars tt = k);
  (* Fold constants and complements into the table. *)
  let tt = ref tt in
  let fanins = Array.copy fanins in
  for i = 0 to k - 1 do
    let s = fanins.(i) in
    if Signal.is_constant s then begin
      tt := (if Signal.is_complemented s then Tt.cofactor1 !tt i else Tt.cofactor0 !tt i);
      fanins.(i) <- Signal.constant false
    end
    else if Signal.is_complemented s then begin
      tt := Tt.flip !tt i;
      fanins.(i) <- Signal.complement s
    end
  done;
  (* Merge duplicated fanins. *)
  for i = 0 to k - 1 do
    if not (Signal.is_constant fanins.(i)) then
      for j = i + 1 to k - 1 do
        if fanins.(j) = fanins.(i) then begin
          tt := Tt.ite (Tt.nth_var k i) (Tt.cofactor1 !tt j) (Tt.cofactor0 !tt j);
          fanins.(j) <- Signal.constant false
        end
      done
  done;
  (* Keep only support variables, ordered by driving signal. *)
  let kept =
    List.filter
      (fun i -> (not (Signal.is_constant fanins.(i))) && Tt.has_var !tt i)
      (List.init k (fun i -> i))
  in
  let kept = List.sort (fun i j -> Stdlib.compare fanins.(i) fanins.(j)) kept in
  let m = List.length kept in
  (* kept variable [i] moves to its rank [j]; the others, on which the
     table no longer depends, fill the indices from [m] up and drop off *)
  let perm = Array.make k (-1) in
  List.iteri (fun j i -> perm.(i) <- j) kept;
  let next = ref m in
  Array.iteri
    (fun i p ->
      if p < 0 then begin
        perm.(i) <- !next;
        incr next
      end)
    perm;
  let tt' = Tt.shrink (Tt.permute !tt perm) m in
  let fanins' = Array.of_list (List.map (fun i -> fanins.(i)) kept) in
  if m = 0 then Core_network.Norm_signal (Signal.constant (Tt.is_const1 tt'))
  else if m = 1 && Tt.equal tt' (Tt.nth_var 1 0) then Core_network.Norm_signal fanins'.(0)
  else if m = 1 && Tt.equal tt' (Tt.( ~: ) (Tt.nth_var 1 0)) then
    Core_network.Norm_signal (Signal.complement fanins'.(0))
  else Core_network.Norm_node (Kind.Lut tt', fanins', false)

include Core_network.Make (struct
  let name = "klut"
  let max_fanin = 16

  let normalize kind fanins =
    match kind with
    | Kind.Lut tt -> normalize_lut tt fanins
    | Kind.And -> normalize_lut (Kind.function_of Kind.And (Array.length fanins)) fanins
    | Kind.Xor -> normalize_lut (Kind.function_of Kind.Xor (Array.length fanins)) fanins
    | Kind.Maj -> normalize_lut (Kind.function_of Kind.Maj (Array.length fanins)) fanins
    | Kind.Const | Kind.Pi -> invalid_arg "Klut.normalize: not a gate kind"
end)


(* Create a LUT node computing [tt] over the given fanin signals. *)
let create_lut t fanins tt = create_node t (Kind.Lut tt) fanins

let create_and t a b = create_node t Kind.And [| a; b |]
let create_or t a b = Signal.complement (create_and t (Signal.complement a) (Signal.complement b))
let create_xor t a b = create_node t Kind.Xor [| a; b |]
let create_maj t a b c = create_node t Kind.Maj [| a; b; c |]

let create_ite t i th el =
  let tt =
    Tt.ite (Tt.nth_var 3 0) (Tt.nth_var 3 1) (Tt.nth_var 3 2)
  in
  create_lut t [| i; th; el |] tt

include Ops.Nary (struct
  type nonrec t = t
  type signal = Signal.t

  let constant = constant
  let create_and = create_and
  let create_or = create_or
  let create_xor = create_xor
end)
