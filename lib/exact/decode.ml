(* Decoding Boolean chains into any network representation, through the
   generic constructors.  Chain operators are recognized as (possibly
   complemented) AND / XOR / MAJ applications by one index into, or a
   compare against, tables computed once when this module is initialized;
   anything unexpected falls back to the factored-form builder, so
   decoding never fails. *)

open Kitty
open Network

(* The operators a chain step is matched against, computed once.  For
   each of the 16 two-input operators (indexed by its table word), the
   complement pattern [(pa, pb, po)] with
   [op = po XOR ((pa XOR x0) & (pb XOR x1))], if there is one. *)
let and_patterns : (bool * bool * bool) option array =
  let x0 = Tt.nth_var 2 0 and x1 = Tt.nth_var 2 1 in
  let patterns = List.init 8 (fun p -> (p land 1 = 1, p land 2 = 2, p land 4 = 4)) in
  Array.init 16 (fun w ->
      let op = Tt.of_int64 2 (Int64.of_int w) in
      List.find_opt
        (fun (pa, pb, po) ->
          let base = Tt.and_c pa x0 pb x1 in
          Tt.equal op (if po then Tt.( ~: ) base else base))
        patterns)

let xor2_tt = Tt.of_hex 2 "6"
let maj3_tt = Kind.function_of Kind.Maj 3

(* MAJ3 with input [i] complemented, for i = 0, 1, 2 *)
let maj3_flipped = Array.init 3 (Tt.flip maj3_tt)
let xor3_tt = Tt.(nth_var 3 0 ^: nth_var 3 1 ^: nth_var 3 2)

module Make (N : Intf.BUILDER) = struct
  module B = Build.Make (N)

  let decode_op2 t op a b =
    if Tt.equal op xor2_tt then N.create_xor t a b
    else
      match
        if Tt.num_vars op = 2 then and_patterns.(Int64.to_int (Tt.to_int64 op))
        else None
      with
      | Some (pa, pb, po) ->
        N.complement_if po
          (N.create_and t (N.complement_if pa a) (N.complement_if pb b))
      | None -> B.of_tt t [| a; b |] op

  let decode_op3 t op a b c =
    if Tt.equal op maj3_tt then N.create_maj t a b c
    else if Tt.equal op maj3_flipped.(0) then N.create_maj t (N.complement a) b c
    else if Tt.equal op maj3_flipped.(1) then N.create_maj t a (N.complement b) c
    else if Tt.equal op maj3_flipped.(2) then N.create_maj t a b (N.complement c)
    else if Tt.equal op xor3_tt then N.create_xor t (N.create_xor t a b) c
    else B.of_tt t [| a; b; c |] op

  (* Build the chain over [inputs] (inputs.(i) drives chain input i). *)
  let chain t (c : Chain.t) (inputs : N.signal array) : N.signal =
    assert (Array.length inputs >= c.Chain.num_inputs);
    let n = c.Chain.num_inputs in
    let values = Array.make (1 + n + Array.length c.Chain.steps) (N.constant false) in
    for i = 0 to n - 1 do
      values.(1 + i) <- inputs.(i)
    done;
    Array.iteri
      (fun i step ->
        let args = Array.map (fun j -> values.(j)) step.Chain.fanins in
        let s =
          match Array.length args with
          | 2 -> decode_op2 t step.Chain.op args.(0) args.(1)
          | 3 -> decode_op3 t step.Chain.op args.(0) args.(1) args.(2)
          | _ -> B.of_tt t args step.Chain.op
        in
        values.(1 + n + i) <- s)
      c.Chain.steps;
    let out = values.(n + Array.length c.Chain.steps) in
    N.complement_if c.Chain.out_complement out

  (* Build a [Synth.result] over [inputs]. *)
  let result t (r : Synth.result) (inputs : N.signal array) : N.signal option =
    match r with
    | Synth.Const b -> Some (N.constant b)
    | Synth.Projection (v, c) -> Some (N.complement_if c inputs.(v))
    | Synth.Chain ch -> Some (chain t ch inputs)
    | Synth.Failed -> None

  (* Build a database lookup result (canonical entry + NPN transform) over
     concrete inputs. *)
  let of_lookup t ((entry, tr) : Synth.result * Kitty.Npn.transform)
      (inputs : N.signal array) : N.signal option =
    match entry with
    | Synth.Failed -> None
    | Synth.Const _ | Synth.Projection _ | Synth.Chain _ ->
      let assignment, out_c = Npn.db_input_assignment tr in
      let mapped =
        Array.map
          (fun (leaf, c) -> N.complement_if c inputs.(leaf))
          assignment
      in
      Option.map (N.complement_if out_c) (result t entry mapped)
end
