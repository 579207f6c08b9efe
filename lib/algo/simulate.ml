(* Bit-parallel network simulation (paper §2.2.2: exhaustive simulation as
   the workhorse of peephole optimization).  Every node value is a truth
   table over the same variable count; with random input patterns this
   doubles as a fast necessary check for equivalence. *)

open Kitty

module Make (N : Network.Intf.TRAVERSABLE) = struct
  module T = Network.Topo.Make (N)

  (* Value of a gate from its fanin values (edge complements applied here).
     A two-input AND, the hot case, is one fused [Tt.and_c]. *)
  let gate_value (t : N.t) n (value_of : N.node -> Tt.t) : Tt.t =
    let fanin = N.fanin t n in
    let arg s =
      let v = value_of (N.node_of_signal s) in
      if N.is_complemented s then Tt.( ~: ) v else v
    in
    let fold op = Array.fold_left (fun acc s -> op acc (arg s)) (arg fanin.(0)) in
    match N.gate_kind t n with
    | Network.Kind.And when Array.length fanin = 2 ->
      let a = fanin.(0) and b = fanin.(1) in
      let va = value_of (N.node_of_signal a) in
      let vb = value_of (N.node_of_signal b) in
      Tt.and_c (N.is_complemented a) va (N.is_complemented b) vb
    | Network.Kind.And -> fold Tt.( &: ) (Array.sub fanin 1 (Array.length fanin - 1))
    | Network.Kind.Xor -> fold Tt.( ^: ) (Array.sub fanin 1 (Array.length fanin - 1))
    | Network.Kind.Maj -> Tt.maj (arg fanin.(0)) (arg fanin.(1)) (arg fanin.(2))
    | Network.Kind.Lut tt -> Tt.apply tt (Array.map arg fanin)
    | Network.Kind.Const | Network.Kind.Pi ->
      invalid_arg "Simulate.gate_value: not a gate"

  (* Simulate the whole network under the given PI values; returns the value
     of every node (indexed by node id). *)
  let simulate (t : N.t) (pi_values : Tt.t array) : Tt.t array =
    assert (Array.length pi_values = N.num_pis t);
    let m = if Array.length pi_values = 0 then 0 else Tt.num_vars pi_values.(0) in
    let values = Array.make (N.size t) (Tt.const0 m) in
    Array.iteri (fun i n -> values.(n) <- pi_values.(i)) (N.pis t);
    List.iter
      (fun n -> values.(n) <- gate_value t n (fun c -> values.(c)))
      (T.order t);
    values

  let output_values (t : N.t) (values : Tt.t array) : Tt.t array =
    Array.map
      (fun s ->
        let v = values.(N.node_of_signal s) in
        if N.is_complemented s then Tt.( ~: ) v else v)
      (N.pos t)

  (* Exhaustive simulation: PI i is variable i; only valid for networks with
     at most [Tt.max_vars] primary inputs. *)
  let simulate_exhaustive (t : N.t) : Tt.t array =
    let n = N.num_pis t in
    simulate t (Array.init n (fun i -> Tt.nth_var n i))

  (* Functions computed by the primary outputs, over the PI variables. *)
  let output_functions (t : N.t) : Tt.t array =
    output_values t (simulate_exhaustive t)

  (* Random simulation with [num_vars]-variable tables (2^num_vars patterns
     per PI). *)
  let random_values ~num_vars ~seed (t : N.t) : Tt.t array =
    let rng = Random.State.make [| seed |] in
    let random_tt () =
      let tt = Tt.create num_vars in
      for m = 0 to (1 lsl num_vars) - 1 do
        if Random.State.bool rng then Tt.set_bit tt m
      done;
      tt
    in
    Array.init (N.num_pis t) (fun _ -> random_tt ())
end
