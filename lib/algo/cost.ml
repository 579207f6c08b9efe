(* The cost-generic optimization layer: one replacement step behind
   every resynthesis pass.

   The paper's "write once, instantiate many" discipline is extended from
   representations to cost functions (AnySyn, arXiv 2311.14721): a cost
   objective is a [Spec.t] — an integer per-node price ([node_cost])
   folded with [+] (additive objectives) or [max] (depth) into a
   whole-network objective ([eval]) — and every resynthesis pass
   (balance, rewrite, refactor, resub, and the layer-4 AIG rewriting)
   takes its replacements through [replace] instead of inlining
   gates/depth arithmetic.

   Gain accounting follows the DAG-aware protocol the passes already
   used for plain gate counts (paper §2.2.3), generalized:

     mark  <- size of the network          (before building a candidate)
     build the candidate (structural hashing exposes sharing)
     cycle guard: a candidate whose cone reads the target is taken out
     added <- cost of the nodes the build created ([mark, size) slice)
     freed <- cost released by removing the target's MFFC, with the
              candidate root held
     gain  =  freed - added; accept when gain > 0 (>= 0 in zero-gain
              passes), then substitute — or take the candidate out

   [replace] is that protocol in one function, and [price] is the same
   step without the commit.  [commit] is the step without the pricing,
   for MIG algebraic rewriting, which decides on level estimates before
   it builds.  [freed] is computed *after* the candidate
   exists, so nodes shared between the dying cone and the candidate hold
   references and are priced by neither side — exactly the seed
   semantics for area.

   Additive objectives (area, edges, switching activity, LUT count,
   per-kind weights) price a replacement by summing node costs.  Depth
   is the max-monoid: [added] is the candidate root's level, [freed] the
   target's level, and the root is priced even when structural hashing
   resolved it to a reused node — a reused-but-deeper node must not look
   free.  Replacing a node by a strictly shallower equivalent never
   increases any downstream level, so depth-gated acceptance is
   monotone on the whole-network objective. *)

module Intf = Network.Intf

(* ------------------------------------------------------------- specs -- *)

module Spec = struct
  type weights = {
    w_source : string;  (* the FILE of "weights:FILE", kept for printing *)
    w_and : int;
    w_xor : int;
    w_maj : int;
    w_lut : int;
    w_default : int;
  }

  type t =
    | Area  (* live gate count: the seed objective *)
    | Depth  (* logic depth under the unit-delay model *)
    | Edges  (* fanin edge count: a wiring/routing proxy *)
    | Activity  (* switching activity from simulation fingerprints *)
    | Lut of int  (* technology-aware k-LUT packing estimate *)
    | Weights of weights  (* user-supplied per-kind node weights *)

  let default_lut_k = 6

  let names = [ "area"; "depth"; "edges"; "activity"; "lut[:K]"; "weights:FILE" ]

  let to_string = function
    | Area -> "area"
    | Depth -> "depth"
    | Edges -> "edges"
    | Activity -> "activity"
    | Lut k -> if k = default_lut_k then "lut" else Printf.sprintf "lut:%d" k
    | Weights w -> "weights:" ^ w.w_source

  (* A weights file is line-oriented: [<kind> <int>] entries with kinds
     and/xor/maj/lut/default, '#' comments and blank lines skipped.
     Unknown kinds are errors — a typoed kind silently falling back to
     the default weight would invalidate a whole run. *)
  let parse_weights_file path =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error e -> Error (Printf.sprintf "weights file: %s" e)
    | text -> (
      let w =
        ref
          {
            w_source = path;
            w_and = 1;
            w_xor = 1;
            w_maj = 1;
            w_lut = 1;
            w_default = 1;
          }
      in
      let err = ref None in
      List.iteri
        (fun lineno line ->
          let line =
            match String.index_opt line '#' with
            | Some i -> String.sub line 0 i
            | None -> line
          in
          match
            String.split_on_char ' ' (String.trim line)
            |> List.filter (fun t -> t <> "")
          with
          | [] -> ()
          | [ kind; value ] when !err = None -> (
            match int_of_string_opt value with
            | Some v when v >= 0 -> (
              match kind with
              | "and" -> w := { !w with w_and = v }
              | "xor" -> w := { !w with w_xor = v }
              | "maj" -> w := { !w with w_maj = v }
              | "lut" -> w := { !w with w_lut = v }
              | "default" -> w := { !w with w_default = v }
              | k ->
                err :=
                  Some
                    (Printf.sprintf "%s:%d: unknown kind %S" path (lineno + 1) k)
              )
            | Some _ | None ->
              err :=
                Some
                  (Printf.sprintf "%s:%d: weight must be a non-negative int, got %S"
                     path (lineno + 1) value))
          | _ when !err <> None -> ()
          | _ ->
            err :=
              Some
                (Printf.sprintf "%s:%d: expected '<kind> <int>'" path (lineno + 1)))
        (String.split_on_char '\n' text);
      match !err with None -> Ok (Weights !w) | Some e -> Error e)

  let of_string s =
    match String.trim s with
    | "area" -> Ok Area
    | "depth" -> Ok Depth
    | "edges" -> Ok Edges
    | "activity" -> Ok Activity
    | "lut" -> Ok (Lut default_lut_k)
    | s when String.length s > 4 && String.sub s 0 4 = "lut:" -> (
      match int_of_string_opt (String.sub s 4 (String.length s - 4)) with
      | Some k when k >= 2 -> Ok (Lut k)
      | Some _ | None ->
        Error (Printf.sprintf "bad LUT size in cost spec %S (need K >= 2)" s))
    | s when String.length s > 8 && String.sub s 0 8 = "weights:" ->
      parse_weights_file (String.sub s 8 (String.length s - 8))
    | s ->
      Error
        (Printf.sprintf "unknown cost spec %S (expected %s)" s
           (String.concat " | " names))

  (* Additive objectives sum node prices; depth is the max-monoid. *)
  let is_additive = function
    | Area | Edges | Activity | Lut _ | Weights _ -> true
    | Depth -> false
end

(* Deterministic per-PI simulation patterns for the activity objective:
   the pattern of PI [i] depends only on [i], so a node's activity is a
   pure function of its cone and survives equivalence-preserving
   restructuring of the rest of the network. *)
let activity_num_vars = 8

let activity_bit pi_index bit =
  let x = ((pi_index + 1) * 2654435761) lxor ((bit + 1) * 40503) in
  let x = x lxor (x lsr 13) in
  let x = (x * 1274126177) lxor (x lsr 11) in
  (x lsr 7) land 1 = 1

(* activity(p) = 2000 * p * (1-p) in exact integer milli-units over
   2^activity_num_vars patterns: ones in [0, 256] gives a peak of 500 at
   p = 1/2.  Integer-exact so the QCheck monoid axioms hold literally. *)
let activity_of_ones ones =
  let total = 1 lsl activity_num_vars in
  2000 * ones * (total - ones) / (total * total)

(* ---------------------------------------------------- level queries -- *)

(* Level of one node, computed fresh by iterative DFS with a local memo:
   exact under mid-pass restructuring (no stale caches), at the price of
   an O(cone) walk per query.  Shares no scratch state with the calling
   pass.  Needs only TRAVERSABLE, so SAT sweeping (whose functor has no
   reference counting) can price merges too. *)
module Level (N : Intf.TRAVERSABLE) = struct
  let level (net : N.t) (n : N.node) : int =
    if not (N.is_gate net n) then 0
    else begin
      let memo : (N.node, int) Hashtbl.t = Hashtbl.create 64 in
      let stack = Stack.create () in
      Stack.push n stack;
      while not (Stack.is_empty stack) do
        let m = Stack.top stack in
        if Hashtbl.mem memo m then ignore (Stack.pop stack)
        else if not (N.is_gate net m) then begin
          Hashtbl.replace memo m 0;
          ignore (Stack.pop stack)
        end
        else begin
          let ready = ref true in
          let lvl = ref 0 in
          N.foreach_fanin net m (fun s ->
              let c = N.node_of_signal s in
              match Hashtbl.find_opt memo c with
              | Some l -> lvl := max !lvl l
              | None ->
                if N.is_gate net c then begin
                  ready := false;
                  Stack.push c stack
                end
                else Hashtbl.replace memo c 0);
          if !ready then begin
            Hashtbl.replace memo m (!lvl + 1);
            ignore (Stack.pop stack)
          end
        end
      done;
      Hashtbl.find memo n
    end
end

(* Merge gating for SAT sweeping: merging [drop] into the equivalent
   [keep] adds no nodes, so additive objectives always improve (the
   seed's unconditional-merge behavior); the max-monoid requires the
   survivor to be no deeper than the node it replaces. *)
module Merge (N : Intf.TRAVERSABLE) = struct
  module Lv = Level (N)

  let ok (spec : Spec.t) (net : N.t) ~(keep : N.node) ~(drop : N.node) : bool =
    Spec.is_additive spec || Lv.level net keep <= Lv.level net drop
end

(* -------------------------------------------------- the cost functor -- *)

module Make (N : Intf.NETWORK) = struct
  module T = Network.Topo.Make (N)
  module Sim = Simulate.Make (N)
  module Dp = Depth.Make (N)
  module M = Mffc.Make (N)
  module Lv = Level (N)

  let level = Lv.level

  let pi_patterns (net : N.t) =
    Array.init (N.num_pis net) (fun i ->
        let tt = Kitty.Tt.create activity_num_vars in
        for b = 0 to (1 lsl activity_num_vars) - 1 do
          if activity_bit i b then Kitty.Tt.set_bit tt b
        done;
        tt)

  (* Signature of [n]'s cone under the deterministic patterns, computed
     fresh per query with a local memo (same trade-off as [level]). *)
  let activity_of_node (net : N.t) (n : N.node) : int =
    if not (N.is_gate net n) then 0
    else begin
      let patterns = pi_patterns net in
      let pi_slot = Hashtbl.create 16 in
      Array.iteri (fun i p -> Hashtbl.replace pi_slot p i) (N.pis net);
      let memo : (N.node, Kitty.Tt.t) Hashtbl.t = Hashtbl.create 64 in
      let rec value m =
        match Hashtbl.find_opt memo m with
        | Some tt -> tt
        | None ->
          let tt =
            if N.is_constant net m then Kitty.Tt.const0 activity_num_vars
            else if N.is_pi net m then patterns.(Hashtbl.find pi_slot m)
            else Sim.gate_value net m value
          in
          Hashtbl.replace memo m tt;
          tt
      in
      activity_of_ones (Kitty.Tt.count_ones (value n))
    end

  let lut_node_cost k (net : N.t) (n : N.node) =
    let fanin = N.fanin_size net n in
    (max 1 (fanin - 1) + (k - 2)) / (k - 1)

  let weight_node_cost (w : Spec.weights) (net : N.t) (n : N.node) =
    match N.gate_kind net n with
    | Network.Kind.And -> w.Spec.w_and
    | Network.Kind.Xor -> w.Spec.w_xor
    | Network.Kind.Maj -> w.Spec.w_maj
    | Network.Kind.Lut _ -> w.Spec.w_lut
    | Network.Kind.Const | Network.Kind.Pi -> w.Spec.w_default

  (* Per-node price of one objective; 0 for anything but live gates. *)
  let node_cost (spec : Spec.t) (net : N.t) (n : N.node) : int =
    if not (N.is_gate net n) || N.is_dead net n then 0
    else
      match spec with
      | Spec.Area -> 1
      | Spec.Edges -> N.fanin_size net n
      | Spec.Depth -> level net n
      | Spec.Activity -> activity_of_node net n
      | Spec.Lut k -> lut_node_cost k net n
      | Spec.Weights w -> weight_node_cost w net n

  (* Whole-network objective.  Additive objectives fold (+) over every
     live gate (dangling included — they are priced until swept, exactly
     as [num_gates] counts them); depth is the network depth, the max
     level over the gates the outputs reach (a dangling gate delays no
     output).  Activity runs one shared simulation pass instead of
     per-node cone walks. *)
  let eval (spec : Spec.t) (net : N.t) : int =
    match spec with
    | Spec.Area -> N.num_gates net
    | Spec.Edges ->
      List.fold_left (fun a n -> a + N.fanin_size net n) 0 (T.order_all net)
    | Spec.Depth -> Dp.depth net
    | Spec.Activity ->
      let order = T.order_all net in
      let patterns = pi_patterns net in
      let pi_slot = Hashtbl.create 16 in
      Array.iteri (fun i p -> Hashtbl.replace pi_slot p i) (N.pis net);
      let values : (N.node, Kitty.Tt.t) Hashtbl.t =
        Hashtbl.create (1 + List.length order)
      in
      let value_of m =
        match Hashtbl.find_opt values m with
        | Some tt -> tt
        | None ->
          if N.is_pi net m then patterns.(Hashtbl.find pi_slot m)
          else Kitty.Tt.const0 activity_num_vars
      in
      List.fold_left
        (fun acc n ->
          let tt = Sim.gate_value net n value_of in
          Hashtbl.replace values n tt;
          acc + activity_of_ones (Kitty.Tt.count_ones tt))
        0 order
    | Spec.Lut _ | Spec.Weights _ ->
      List.fold_left
        (fun a n -> a + node_cost spec net n)
        0 (T.order_all net)

  (* -------------------------------------------- the replacement step -- *)

  (* Objective cost a candidate build added, the build having started at
     watermark [mark]: node slots are append-only, so the nodes it
     created are exactly [mark, size).  Additive: the sum of node prices
     over that slice (a candidate resolved entirely to existing nodes
     adds 0, as the seed's gate-count delta did).  Depth: the candidate
     root's level, priced even when reused. *)
  let added (spec : Spec.t) (net : N.t) ~mark ~(root : N.node) : int =
    if Spec.is_additive spec then begin
      let total = ref 0 in
      for i = mark to N.size net - 1 do
        total := !total + node_cost spec net i
      done;
      !total
    end
    else level net root

  (* Objective cost released by removing [n]: additive objectives sum the
     MFFC (computed with the candidate's references live, so shared
     nodes cancel out); depth prices [n]'s level. *)
  let freed (spec : Spec.t) (net : N.t) (n : N.node) : int =
    if Spec.is_additive spec then
      M.fold net n (fun c m -> c + node_cost spec net m) 0
    else level net n

  (* The one pricing of a candidate: the gain of replacing [n] by the
     candidate rooted at [root] whose build started at [mark].  The root
     is held while [n]'s MFFC is priced: when structural hashing resolves
     the candidate to an existing node of [n]'s cone, that node survives
     the substitution and is not freed. *)
  let gain (spec : Spec.t) (net : N.t) ~mark ~root:candidate (n : N.node) :
      int =
    let added = added spec net ~mark ~root:candidate in
    ignore (N.incr_ref net candidate);
    let freed = freed spec net n in
    ignore (N.decr_ref net candidate);
    freed - added

  (* One accept rule for every pass: strictly positive gain, or zero gain
     when the pass runs in zero-gain mode (rwz/rfz refresh structure). *)
  let accept ?(zero_gain = false) gain = gain > 0 || (zero_gain && gain = 0)

  type outcome =
    | No_candidate  (* the build found no structure *)
    | Cycle  (* the candidate reads [n]: substituting would close a loop *)
    | Rejected of int  (* priced, and the gain did not pass [accept] *)
    | Replaced of int  (* substituted for [n], with this gain *)

  (* Build a candidate for [n] and guard the cycle: a candidate equal to
     [n] or whose cone above [leaves] contains [n] is taken out again. *)
  let build_guarded net ~leaves n build =
    match build () with
    | None -> Error No_candidate
    | Some s ->
      let root = N.node_of_signal s in
      if root = n || T.cone_contains net ~root ~leaves n then begin
        N.take_out_if_dead net root;
        Error Cycle
      end
      else Ok s

  (* [build_guarded] under the watermark, then priced; the candidate is
     left built. *)
  let build_priced spec net ~leaves n build =
    let mark = N.size net in
    match build_guarded net ~leaves n build with
    | Error _ as e -> e
    | Ok s -> Ok (s, gain spec net ~mark ~root:(N.node_of_signal s) n)

  (* The replacement step every resynthesis pass takes: [build] a
     candidate for [n] over [leaves] (the nodes its cone stops at), guard
     the cycle, price it, and substitute it when [accept] passes; the
     candidate is taken out on every other outcome, so only [Replaced]
     changes the network. *)
  let replace ?zero_gain (spec : Spec.t) (net : N.t) ~leaves (n : N.node)
      (build : unit -> N.signal option) : outcome =
    match build_priced spec net ~leaves n build with
    | Error outcome -> outcome
    | Ok (s, gain) ->
      if accept ?zero_gain gain then begin
        N.substitute_node net n s;
        Replaced gain
      end
      else begin
        N.take_out_if_dead net (N.node_of_signal s);
        Rejected gain
      end

  (* [replace] without the commit: the gain of [build]'s candidate, the
     network left unchanged; [None] when there is no candidate or it
     closes a cycle. *)
  let price (spec : Spec.t) (net : N.t) ~leaves (n : N.node)
      (build : unit -> N.signal option) : int option =
    match build_priced spec net ~leaves n build with
    | Error _ -> None
    | Ok (s, gain) ->
      N.take_out_if_dead net (N.node_of_signal s);
      Some gain

  (* The step without pricing, for a pass that decided before building
     (MIG algebraic rewriting): substitute the guarded candidate for [n];
     false when there is none or it closes a cycle. *)
  let commit (net : N.t) ~leaves (n : N.node)
      (build : unit -> N.signal option) : bool =
    match build_guarded net ~leaves n build with
    | Error _ -> false
    | Ok s ->
      N.substitute_node net n s;
      true

  (* -------------------------------------- network-level comparisons -- *)

  (* Lexicographic network cost: the objective leads, gates and depth
     break ties.  Under the area objective this is exactly the seed's
     (gates, depth) order, so checkpointing and the partition stitch
     gate keep their seed decisions by construction. *)
  let network_cost (spec : Spec.t) (net : N.t) : int * int * int =
    let gates = N.num_gates net in
    let depth = Dp.depth net in
    match spec with
    | Spec.Area -> (gates, gates, depth)
    | Spec.Depth -> (depth, gates, depth)
    | _ -> (eval spec net, gates, depth)

  (* Strict improvement, for gates that replace only on a win. *)
  let network_better (spec : Spec.t) ~(before : N.t) ~(after : N.t) : bool =
    let a1, a2, a3 = network_cost spec after and b1, b2, b3 = network_cost spec before in
    a1 < b1 || (a1 = b1 && (a2 < b2 || (a2 = b2 && a3 < b3)))

  (* An objective is its own pricing context.  The identity is kept
     because the benchmark driver (perfbench) still calls [engine]. *)
  let engine (spec : Spec.t) : Spec.t = spec
end
