(* Decoding Boolean chains into any network representation, through the
   generic constructors.  Chain operators are recognized as (possibly
   complemented) AND / XOR / MAJ applications; anything unexpected falls
   back to the factored-form builder, so decoding never fails. *)

open Kitty
open Network

module Make (N : Intf.BUILDER) = struct
  module B = Build.Make (N)

  let xor2_tt = Tt.of_hex 2 "6"

  let decode_op2 t op a b =
    let x0 = Tt.nth_var 2 0 and x1 = Tt.nth_var 2 1 in
    if Tt.equal op xor2_tt then N.create_xor t a b
    else begin
      let found = ref None in
      List.iter
        (fun (pa, pb, po) ->
          if !found = None then begin
            let cand =
              let base =
                Tt.( &: )
                  (if pa then Tt.( ~: ) x0 else x0)
                  (if pb then Tt.( ~: ) x1 else x1)
              in
              if po then Tt.( ~: ) base else base
            in
            if Tt.equal cand op then found := Some (pa, pb, po)
          end)
        [
          (false, false, false); (true, false, false); (false, true, false);
          (true, true, false); (false, false, true); (true, false, true);
          (false, true, true); (true, true, true);
        ];
      match !found with
      | Some (pa, pb, po) ->
        N.complement_if po
          (N.create_and t (N.complement_if pa a) (N.complement_if pb b))
      | None -> B.of_tt t [| a; b |] op
    end

  let decode_op3 t op a b c =
    let maj = Kind.function_of Kind.Maj 3 in
    let xor3 = Tt.(nth_var 3 0 ^: nth_var 3 1 ^: nth_var 3 2) in
    if Tt.equal op maj then N.create_maj t a b c
    else if Tt.equal op (Tt.flip maj 0) then N.create_maj t (N.complement a) b c
    else if Tt.equal op (Tt.flip maj 1) then N.create_maj t a (N.complement b) c
    else if Tt.equal op (Tt.flip maj 2) then N.create_maj t a b (N.complement c)
    else if Tt.equal op xor3 then N.create_xor t (N.create_xor t a b) c
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
