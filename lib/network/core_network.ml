(* Common machinery behind every network implementation (layer 3 of the
   paper's architecture): growable node storage, structural hashing,
   fanout lists, reference counting, dead-node management and DAG-aware
   [substitute_node].

   A network implementation supplies a [SPEC]: its name, fanin bound and a
   *pure* normalization function that maps a gate kind plus fanin signals to
   either an existing signal (the gate simplifies away) or a canonical
   (kind, fanins, output-complement) triple used as the structural-hashing
   key. *)

type norm =
  | Norm_signal of Signal.t
  | Norm_node of Kind.t * Signal.t array * bool  (* fanins, complement output *)

module type SPEC = sig
  val name : string
  val max_fanin : int
  val normalize : Kind.t -> Signal.t array -> norm
end

module Make (Spec : SPEC) = struct
  type node = int
  type signal = Signal.t

  type node_data = {
    mutable kind : Kind.t;
    mutable fanin : signal array;
    mutable fanout : node list;  (* parent gates, one entry per edge *)
    mutable refs : int;          (* fanout edges + primary-output references *)
    mutable dead : bool;
    mutable visited : int;
    mutable value : int;
  }

  type t = {
    mutable nodes : node_data array;
    mutable size : int;                (* number of live slots in [nodes] *)
    mutable num_gates : int;
    mutable pis : node array;
    mutable num_pis : int;
    mutable pos : signal array;
    mutable num_pos : int;
    strash : (Kind.t * signal array, node) Hashtbl.t;
    mutable traversal_id : int;
  }

  let name = Spec.name
  let max_fanin = Spec.max_fanin

  (* -- signal helpers re-exported so that algorithms can stay generic -- *)
  let signal_of_node = Signal.of_node
  let node_of_signal = Signal.node
  let is_complemented = Signal.is_complemented
  let complement = Signal.complement
  let complement_if = Signal.complement_if
  let constant = Signal.constant

  let fresh_node_data kind fanin =
    { kind; fanin; fanout = []; refs = 0; dead = false; visited = 0; value = 0 }

  let create ?(initial_capacity = 1024) () =
    let nodes = Array.init initial_capacity (fun _ -> fresh_node_data Kind.Const [||]) in
    let t =
      {
        nodes;
        size = 0;
        num_gates = 0;
        pis = Array.make 16 0;
        num_pis = 0;
        pos = Array.make 16 0;
        num_pos = 0;
        strash = Hashtbl.create 1024;
        traversal_id = 0;
      }
    in
    (* node 0: constant false *)
    t.nodes.(0) <- fresh_node_data Kind.Const [||];
    t.size <- 1;
    t

  let grow t =
    if t.size >= Array.length t.nodes then begin
      let bigger = Array.init (2 * Array.length t.nodes) (fun _ -> fresh_node_data Kind.Const [||]) in
      Array.blit t.nodes 0 bigger 0 t.size;
      t.nodes <- bigger
    end

  let data t n = t.nodes.(n)

  let alloc t kind fanin =
    grow t;
    let n = t.size in
    t.nodes.(n) <- fresh_node_data kind fanin;
    t.size <- t.size + 1;
    n

  (* -- basic queries -- *)

  let size t = t.size
  let num_gates t = t.num_gates
  let num_pis t = t.num_pis
  let num_pos t = t.num_pos
  let gate_kind t n = (data t n).kind
  let is_constant _ n = n = 0
  let is_pi t n = (data t n).kind = Kind.Pi

  let is_gate t n =
    match (data t n).kind with
    | Kind.Const | Kind.Pi -> false
    | Kind.And | Kind.Xor | Kind.Maj | Kind.Lut _ -> true

  let is_dead t n = (data t n).dead
  let fanin t n = (data t n).fanin
  let fanin_size t n = Array.length (data t n).fanin
  let fanout t n = (data t n).fanout
  let ref_count t n = (data t n).refs

  let pi_at t i = t.pis.(i)
  let po_at t i = t.pos.(i)
  let pis t = Array.sub t.pis 0 t.num_pis
  let pos t = Array.sub t.pos 0 t.num_pos

  (* Index of a primary input among the PIs (linear scan; cached by
     algorithms that need it repeatedly via node values). *)
  let pi_index t n =
    let rec go i =
      if i >= t.num_pis then raise Not_found
      else if t.pis.(i) = n then i
      else go (i + 1)
    in
    go 0

  (* -- iteration (creation order; callers needing a true topological order
        after substitutions use [Topo]) -- *)

  let foreach_node t f =
    let n0 = t.size in
    for n = 0 to n0 - 1 do
      if not (data t n).dead then f n
    done

  let foreach_pi t f =
    for i = 0 to t.num_pis - 1 do
      f t.pis.(i)
    done

  let foreach_po t f =
    for i = 0 to t.num_pos - 1 do
      f t.pos.(i)
    done

  let foreach_gate t f =
    let n0 = t.size in
    for n = 0 to n0 - 1 do
      if (not (data t n).dead) && is_gate t n then f n
    done

  let foreach_fanin t n f = Array.iter f (data t n).fanin

  let gates t =
    let acc = ref [] in
    for n = t.size - 1 downto 0 do
      if (not (data t n).dead) && is_gate t n then acc := n :: !acc
    done;
    !acc

  (* -- scratch values and traversal marks -- *)

  let set_value t n v = (data t n).value <- v
  let value t n = (data t n).value
  let incr_value t n = let d = data t n in d.value <- d.value + 1; d.value
  let decr_value t n = let d = data t n in d.value <- d.value - 1; d.value

  let clear_values t =
    for n = 0 to t.size - 1 do
      (data t n).value <- 0
    done

  let new_traversal_id t =
    t.traversal_id <- t.traversal_id + 1;
    t.traversal_id

  let set_visited t n id = (data t n).visited <- id
  let visited t n = (data t n).visited

  (* -- reference counting -- *)

  let incr_ref t n =
    let d = data t n in
    d.refs <- d.refs + 1;
    d.refs

  let decr_ref t n =
    let d = data t n in
    assert (d.refs > 0);
    d.refs <- d.refs - 1;
    d.refs

  (* -- structural hashing and node creation -- *)

  let strash_remove t n =
    let d = data t n in
    match Hashtbl.find_opt t.strash (d.kind, d.fanin) with
    | Some m when m = n -> Hashtbl.remove t.strash (d.kind, d.fanin)
    | Some _ | None -> ()

  let add_fanout_edges t n =
    Array.iter
      (fun s ->
        let c = node_of_signal s in
        let dc = data t c in
        dc.fanout <- n :: dc.fanout;
        ignore (incr_ref t c))
      (data t n).fanin

  let remove_one_fanout t child parent =
    let d = data t child in
    let rec remove = function
      | [] -> []
      | x :: rest -> if x = parent then rest else x :: remove rest
    in
    d.fanout <- remove d.fanout;
    ignore (decr_ref t child)

  (* Delete a node whose reference count reached zero, recursively freeing
     children that become unreferenced. *)
  let rec take_out_node t n =
    if is_gate t n && not (data t n).dead then begin
      let d = data t n in
      assert (d.refs = 0);
      strash_remove t n;
      d.dead <- true;
      t.num_gates <- t.num_gates - 1;
      Array.iter
        (fun s ->
          let c = node_of_signal s in
          remove_one_fanout t c n;
          if (data t c).refs = 0 then take_out_node t c)
        d.fanin;
      d.fanin <- [||];
      d.fanout <- []
    end

  (* Remove [n] if it is an unreferenced gate (recursively freeing children
     that become unreferenced).  Used by optimization algorithms to undo
     speculative candidate constructions. *)
  let take_out_if_dead t n =
    if is_gate t n && (not (data t n).dead) && (data t n).refs = 0 then
      take_out_node t n

  (* Create (or look up) the node for [kind fanins]; performs
     representation-specific normalization, then structural hashing. *)
  let create_node t kind fanins =
    if Array.length fanins > Spec.max_fanin then
      invalid_arg (Spec.name ^ ": fanin bound exceeded");
    match Spec.normalize kind fanins with
    | Norm_signal s -> s
    | Norm_node (kind, fanins, out_c) ->
      let s =
        match Hashtbl.find_opt t.strash (kind, fanins) with
        | Some n when not (data t n).dead -> signal_of_node n
        | Some _ | None ->
          let n = alloc t kind fanins in
          Hashtbl.replace t.strash (kind, fanins) n;
          t.num_gates <- t.num_gates + 1;
          add_fanout_edges t n;
          signal_of_node n
      in
      complement_if out_c s

  let create_pi t =
    let n = alloc t Kind.Pi [||] in
    if t.num_pis >= Array.length t.pis then begin
      let bigger = Array.make (2 * Array.length t.pis) 0 in
      Array.blit t.pis 0 bigger 0 t.num_pis;
      t.pis <- bigger
    end;
    t.pis.(t.num_pis) <- n;
    t.num_pis <- t.num_pis + 1;
    signal_of_node n

  let create_po t s =
    if t.num_pos >= Array.length t.pos then begin
      let bigger = Array.make (2 * Array.length t.pos) 0 in
      Array.blit t.pos 0 bigger 0 t.num_pos;
      t.pos <- bigger
    end;
    t.pos.(t.num_pos) <- s;
    t.num_pos <- t.num_pos + 1;
    ignore (incr_ref t (node_of_signal s))

  let set_po t i s =
    let old = t.pos.(i) in
    if old <> s then begin
      t.pos.(i) <- s;
      ignore (incr_ref t (node_of_signal s));
      let o = node_of_signal old in
      if decr_ref t o = 0 then take_out_node t o
    end

  (* -- node functions -- *)

  let node_function t n =
    let d = data t n in
    Kind.function_of d.kind (Array.length d.fanin)

  (* -- substitution (paper §2.2.3) --

     Replaces node [old_n] by signal [new_s] everywhere: primary outputs and
     parent gates are rewired; parents whose gate simplifies or merges with
     an existing node after rewiring are substituted in turn (worklist). *)
  let substitute_node t old_n new_s =
    let work = Queue.create () in
    (* Queued targets hold a reference so that cascading deletions cannot
       remove them before their entry is processed; [forward] redirects
       through nodes that were themselves substituted meanwhile. *)
    let forward : (node, signal) Hashtbl.t = Hashtbl.create 8 in
    let rec resolve s =
      match Hashtbl.find_opt forward (node_of_signal s) with
      | Some s' -> resolve (complement_if (is_complemented s) s')
      | None -> s
    in
    let push o s =
      ignore (incr_ref t (node_of_signal s));
      Queue.push (o, s) work
    in
    push old_n new_s;
    while not (Queue.is_empty work) do
      let o, s0 = Queue.pop work in
      let s = resolve s0 in
      if node_of_signal s <> node_of_signal s0 then begin
        (* move the queue-hold to the resolved target *)
        ignore (incr_ref t (node_of_signal s));
        let r = decr_ref t (node_of_signal s0) in
        if r = 0 then take_out_node t (node_of_signal s0)
      end;
      if (not (data t o).dead) && node_of_signal s <> o then begin
        (* primary outputs *)
        for i = 0 to t.num_pos - 1 do
          let po = t.pos.(i) in
          if node_of_signal po = o then
            set_po t i (complement_if (is_complemented po) s)
        done;
        (* parent gates: each distinct parent processed once per edge batch *)
        let parents = List.sort_uniq Stdlib.compare (data t o).fanout in
        List.iter
          (fun p ->
            if not (data t p).dead then begin
              let dp = data t p in
              strash_remove t p;
              let new_fanins =
                Array.map
                  (fun e ->
                    if node_of_signal e = o then complement_if (is_complemented e) s
                    else e)
                  dp.fanin
              in
              (* detach old edges, attach the rewired ones *)
              Array.iter
                (fun e -> remove_one_fanout t (node_of_signal e) p)
                dp.fanin;
              dp.fanin <- new_fanins;
              add_fanout_edges t p;
              (* renormalize: the parent may simplify or merge *)
              match Spec.normalize dp.kind new_fanins with
              | Norm_signal s2 -> push p s2
              | Norm_node (kind, fanins, out_c) ->
                if
                  (not out_c)
                  && Kind.equal kind dp.kind
                  && fanins = new_fanins
                then begin
                  (* canonical as-is: merge with an existing node or claim
                     the hash entry *)
                  match Hashtbl.find_opt t.strash (kind, fanins) with
                  | Some q when q <> p && not (data t q).dead ->
                    push p (signal_of_node q)
                  | Some _ | None -> Hashtbl.replace t.strash (kind, fanins) p
                end
                else begin
                  (* normalization changed shape: build the canonical node
                     and substitute the parent by it *)
                  let q = create_node t dp.kind new_fanins in
                  push p q
                end
            end)
          parents;
        Hashtbl.replace forward o s;
        (* the old node should now be unreferenced *)
        if (data t o).refs = 0 then take_out_node t o
      end;
      (* release the queue-hold on the target *)
      let r = decr_ref t (node_of_signal s) in
      if r = 0 then take_out_node t (node_of_signal s)
    done

  let replace_in_outputs t old_n new_s =
    for i = 0 to t.num_pos - 1 do
      let po = t.pos.(i) in
      if node_of_signal po = old_n then
        set_po t i (complement_if (is_complemented po) new_s)
    done

  (* -- statistics / debug -- *)

  (* Structural invariants, used by tests and assertions: live nodes point
     at live children, reference counts equal fanout-edge plus PO counts,
     fanout lists mirror fanin edges. *)
  let check_integrity t =
    let errors = ref [] in
    let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
    let expected_refs = Array.make t.size 0 in
    for n = 0 to t.size - 1 do
      let d = data t n in
      if not d.dead then
        Array.iter
          (fun s ->
            let c = node_of_signal s in
            if (data t c).dead then err "live node %d has dead fanin %d" n c;
            expected_refs.(c) <- expected_refs.(c) + 1;
            if not (List.mem n (data t c).fanout) then
              err "node %d missing from fanout of %d" n c)
          d.fanin
    done;
    for i = 0 to t.num_pos - 1 do
      let c = node_of_signal t.pos.(i) in
      if (data t c).dead then err "PO %d drives dead node %d" i c;
      expected_refs.(c) <- expected_refs.(c) + 1
    done;
    for n = 0 to t.size - 1 do
      let d = data t n in
      if (not d.dead) && d.refs <> expected_refs.(n) then
        err "node %d refs=%d expected=%d" n d.refs expected_refs.(n);
      if not d.dead then
        List.iter
          (fun p ->
            if (data t p).dead then err "node %d has dead fanout %d" n p)
          d.fanout
    done;
    List.rev !errors

  let pp_stats fmt t =
    Format.fprintf fmt "%s: i/o = %d/%d  gates = %d  size = %d" Spec.name
      t.num_pis t.num_pos t.num_gates t.size
end
