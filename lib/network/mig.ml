(* Majority-inverter graphs: three-input majority gates with complemented
   edges.  AND/OR are represented as majority gates with a constant fanin
   (maj(0,a,b) = a&b, maj(1,a,b) = a|b).  Self-duality
   (maj(!a,!b,!c) = !maj(a,b,c)) is used to canonicalize nodes to at most
   one complemented fanin. *)

let normalize_maj fanins =
  (* the three signals in ascending order, compared as ints *)
  let x : Signal.t = fanins.(0) and y : Signal.t = fanins.(1) and z : Signal.t = fanins.(2) in
  let a = Int.min x (Int.min y z) and c = Int.max x (Int.max y z) in
  let b = x + y + z - a - c in
  if a = b then Core_network.Norm_signal a
  else if b = c then Core_network.Norm_signal b
  else if a = Signal.complement b then Core_network.Norm_signal c
  else if b = Signal.complement c then Core_network.Norm_signal a
  else begin
    let complemented =
      (if Signal.is_complemented a then 1 else 0)
      + (if Signal.is_complemented b then 1 else 0)
      + (if Signal.is_complemented c then 1 else 0)
    in
    (* the three nodes are distinct here, so complementing every signal
       keeps them sorted *)
    if complemented >= 2 then
      Core_network.Norm_node
        (Kind.Maj, [| Signal.complement a; Signal.complement b; Signal.complement c |], true)
    else Core_network.Norm_node (Kind.Maj, [| a; b; c |], false)
  end

include Core_network.Make (struct
  let name = "mig"
  let max_fanin = 3

  let normalize kind fanins =
    match (kind, fanins) with
    | Kind.Maj, [| _; _; _ |] -> normalize_maj fanins
    | (Kind.Const | Kind.Pi | Kind.And | Kind.Xor | Kind.Maj | Kind.Lut _), _ ->
      invalid_arg "Mig.normalize: only 3-input MAJ gates"
end)

let create_maj t a b c = create_node t Kind.Maj [| a; b; c |]
let create_and t a b = create_maj t (Signal.constant false) a b
let create_or t a b = create_maj t (Signal.constant true) a b

let create_xor t a b =
  (* (a | b) & !(a & b) *)
  create_and t (create_or t a b) (Signal.complement (create_and t a b))

let create_ite t i th el =
  create_or t (create_and t i th) (create_and t (Signal.complement i) el)

include Ops.Nary (struct
  type nonrec t = t
  type signal = Signal.t

  let constant = constant
  let create_and = create_and
  let create_or = create_or
  let create_xor = create_xor
end)
