(* Common machinery behind every network implementation (layer 3 of the
   paper's architecture): growable node storage, structural hashing,
   fanout lists, reference counting, dead-node management and DAG-aware
   [substitute_node].

   A network implementation supplies a [SPEC]: its name, fanin bound and a
   *pure* normalization function that maps a gate kind plus fanin signals to
   either an existing signal (the gate simplifies away) or a canonical
   (kind, fanins, output-complement) triple used as the structural-hashing
   key.

   Storage is flat, as in the EPFL libraries and ABC: per-node state lives
   in parallel arrays indexed by node id, with no record per slot, and the
   structural-hashing table is a set of intrusive chains over node ids
   (one head per bucket, one successor link per node), so a lookup
   compares the stored fanins of the chained nodes in place and allocates
   no key.  No comparison here is polymorphic (see DESIGN.md, "Network
   substrate"). *)

type norm =
  | Norm_signal of Signal.t
  | Norm_node of Kind.t * Signal.t array * bool  (* fanins, complement output *)

module type SPEC = sig
  val name : string
  val max_fanin : int
  val normalize : Kind.t -> Signal.t array -> norm
end

module Itbl = Hashtbl.Make (Int)

module Make (Spec : SPEC) = struct
  type node = int
  type signal = Signal.t

  type t = {
    mutable kinds : Kind.t array;
    mutable fanins : signal array array;
    mutable fanouts : node list array;  (* parent gates, one entry per edge *)
    mutable refs : int array;           (* fanout edges + primary-output references *)
    mutable dead : bool array;
    mutable visited : int array;
    mutable values : int array;
    mutable next : node array;          (* strash chain successor; 0 ends a chain *)
    mutable buckets : node array;       (* strash chain heads; a power of two long *)
    mutable entries : int;              (* gates on the strash chains *)
    mutable size : int;                 (* slots in use, dead ones included *)
    mutable num_gates : int;
    mutable pis : node array;
    mutable num_pis : int;
    mutable pos : signal array;
    mutable num_pos : int;
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

  (* The bucket count starts at the first power of two that holds the
     expected node count, so the many small networks that conversion,
     partitioning and parsing size to their input do not each pay for a
     large empty table. *)
  let rec pow2_at_least c n = if c >= n then c else pow2_at_least (2 * c) n

  let create ?(initial_capacity = 1024) () =
    let cap = max 1 initial_capacity in
    {
      kinds = Array.make cap Kind.Const;
      fanins = Array.make cap [||];
      fanouts = Array.make cap [];
      refs = Array.make cap 0;
      dead = Array.make cap false;
      visited = Array.make cap 0;
      values = Array.make cap 0;
      next = Array.make cap 0;
      buckets = Array.make (pow2_at_least 1 cap) 0;
      entries = 0;
      (* node 0: constant false *)
      size = 1;
      num_gates = 0;
      pis = Array.make 16 0;
      num_pis = 0;
      pos = Array.make 16 0;
      num_pos = 0;
      traversal_id = 0;
    }

  let grow t =
    let cap = Array.length t.kinds in
    if t.size >= cap then begin
      let extend a fill =
        let b = Array.make (2 * cap) fill in
        Array.blit a 0 b 0 t.size;
        b
      in
      t.kinds <- extend t.kinds Kind.Const;
      t.fanins <- extend t.fanins [||];
      t.fanouts <- extend t.fanouts [];
      t.refs <- extend t.refs 0;
      t.dead <- extend t.dead false;
      t.visited <- extend t.visited 0;
      t.values <- extend t.values 0;
      t.next <- extend t.next 0
    end

  let alloc t kind fanin =
    grow t;
    let n = t.size in
    t.kinds.(n) <- kind;
    t.fanins.(n) <- fanin;
    t.size <- t.size + 1;
    n

  (* -- basic queries -- *)

  let size t = t.size
  let num_gates t = t.num_gates
  let num_pis t = t.num_pis
  let num_pos t = t.num_pos
  let gate_kind t n = t.kinds.(n)
  let is_constant _ n = n = 0

  let is_pi t n =
    match t.kinds.(n) with
    | Kind.Pi -> true
    | Kind.Const | Kind.And | Kind.Xor | Kind.Maj | Kind.Lut _ -> false

  let is_gate t n =
    match t.kinds.(n) with
    | Kind.Const | Kind.Pi -> false
    | Kind.And | Kind.Xor | Kind.Maj | Kind.Lut _ -> true

  let is_dead t n = t.dead.(n)
  let fanin t n = t.fanins.(n)
  let fanin_size t n = Array.length t.fanins.(n)
  let fanout t n = t.fanouts.(n)
  let ref_count t n = t.refs.(n)

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
      if not t.dead.(n) then f n
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
      if (not t.dead.(n)) && is_gate t n then f n
    done

  let foreach_fanin t n f = Array.iter f t.fanins.(n)

  let gates t =
    let acc = ref [] in
    for n = t.size - 1 downto 0 do
      if (not t.dead.(n)) && is_gate t n then acc := n :: !acc
    done;
    !acc

  (* -- scratch values and traversal marks -- *)

  let set_value t n v = t.values.(n) <- v
  let value t n = t.values.(n)

  let new_traversal_id t =
    t.traversal_id <- t.traversal_id + 1;
    t.traversal_id

  let set_visited t n id = t.visited.(n) <- id
  let visited t n = t.visited.(n)

  (* -- reference counting -- *)

  let incr_ref t n =
    let r = t.refs.(n) + 1 in
    t.refs.(n) <- r;
    r

  let decr_ref t n =
    let r = t.refs.(n) in
    assert (r > 0);
    t.refs.(n) <- r - 1;
    r - 1

  (* -- structural hashing --

     The key of a gate is its kind and its (normalized) fanin signals; a
     [Lut] kind hashes its table.  A gate is on the chain of its key's
     bucket exactly while it is live and its stored fanins are its key;
     node 0 (the constant) is never hashed, so it ends every chain. *)

  let kind_hash = function
    | Kind.Const -> 0
    | Kind.Pi -> 1
    | Kind.And -> 2
    | Kind.Xor -> 3
    | Kind.Maj -> 4
    | Kind.Lut tt -> Hashtbl.hash tt

  let key_hash kind (fanins : signal array) =
    let h = ref (kind_hash kind) in
    for i = 0 to Array.length fanins - 1 do
      h := (!h lxor Array.unsafe_get fanins i) * 0x2545F4914F6CDD1D
    done;
    !h lxor (!h lsr 29)

  let bucket t kind fanins = key_hash kind fanins land (Array.length t.buckets - 1)

  let same_fanins (a : signal array) (b : signal array) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i >= n || (Array.unsafe_get a i = Array.unsafe_get b i && go (i + 1)) in
    go 0

  (* The hashed gate with key [kind fanins], or 0 when there is none. *)
  let strash_find t kind fanins =
    let rec walk n =
      if n = 0 || (same_fanins t.fanins.(n) fanins && Kind.equal t.kinds.(n) kind) then n
      else walk t.next.(n)
    in
    walk t.buckets.(bucket t kind fanins)

  let link t n =
    let b = bucket t t.kinds.(n) t.fanins.(n) in
    t.next.(n) <- t.buckets.(b);
    t.buckets.(b) <- n

  (* Double the bucket array once the chains hold more gates than there
     are buckets, relinking every hashed gate under the new mask. *)
  let rehash t =
    let old = t.buckets in
    t.buckets <- Array.make (2 * Array.length old) 0;
    Array.iter
      (fun head ->
        let rec relink n =
          if n <> 0 then begin
            let nx = t.next.(n) in
            link t n;
            relink nx
          end
        in
        relink head)
      old

  let strash_insert t n =
    t.entries <- t.entries + 1;
    if t.entries > Array.length t.buckets then rehash t;
    link t n

  (* Unlink [n] from its key's chain, if it is on it. *)
  let strash_remove t n =
    let b = bucket t t.kinds.(n) t.fanins.(n) in
    let rec unlink prev m =
      if m <> 0 then
        if m = n then begin
          if prev = 0 then t.buckets.(b) <- t.next.(n) else t.next.(prev) <- t.next.(n);
          t.next.(n) <- 0;
          t.entries <- t.entries - 1
        end
        else unlink m t.next.(m)
    in
    unlink 0 t.buckets.(b)

  (* -- node creation and deletion -- *)

  let add_fanout_edges t n =
    Array.iter
      (fun s ->
        let c = node_of_signal s in
        t.fanouts.(c) <- n :: t.fanouts.(c);
        ignore (incr_ref t c))
      t.fanins.(n)

  let remove_one_fanout t child parent =
    let rec remove = function
      | [] -> []
      | x :: rest -> if x = parent then rest else x :: remove rest
    in
    t.fanouts.(child) <- remove t.fanouts.(child);
    ignore (decr_ref t child)

  (* Delete a node whose reference count reached zero, recursively freeing
     children that become unreferenced. *)
  let rec take_out_node t n =
    if is_gate t n && not t.dead.(n) then begin
      assert (t.refs.(n) = 0);
      strash_remove t n;
      t.dead.(n) <- true;
      t.num_gates <- t.num_gates - 1;
      Array.iter
        (fun s ->
          let c = node_of_signal s in
          remove_one_fanout t c n;
          if t.refs.(c) = 0 then take_out_node t c)
        t.fanins.(n);
      t.fanins.(n) <- [||];
      t.fanouts.(n) <- []
    end

  (* Remove [n] if it is an unreferenced gate (recursively freeing children
     that become unreferenced).  Used by optimization algorithms to undo
     speculative candidate constructions. *)
  let take_out_if_dead t n =
    if is_gate t n && (not t.dead.(n)) && t.refs.(n) = 0 then take_out_node t n

  (* Create (or look up) the node for [kind fanins]; performs
     representation-specific normalization, then structural hashing. *)
  let create_node t kind fanins =
    if Array.length fanins > Spec.max_fanin then
      invalid_arg (Spec.name ^ ": fanin bound exceeded");
    match Spec.normalize kind fanins with
    | Norm_signal s -> s
    | Norm_node (kind, fanins, out_c) ->
      let n = strash_find t kind fanins in
      let n =
        if n <> 0 then n
        else begin
          let n = alloc t kind fanins in
          strash_insert t n;
          t.num_gates <- t.num_gates + 1;
          add_fanout_edges t n;
          n
        end
      in
      complement_if out_c (signal_of_node n)

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

  (* Are the stored fanins of gate [n] its normal form (the key that
     [create_node] would hash it under)? *)
  let in_normal_form t n =
    let kind = t.kinds.(n) and fanins = t.fanins.(n) in
    match Spec.normalize kind fanins with
    | Norm_signal _ -> false
    | Norm_node (kind', canon, out_c) ->
      (not out_c) && Kind.equal kind' kind && same_fanins canon fanins

  (* -- substitution (paper §2.2.3) --

     Replaces node [old_n] by signal [new_s] everywhere: primary outputs and
     parent gates are rewired; parents whose gate simplifies or merges with
     an existing node after rewiring are substituted in turn (worklist). *)
  let substitute_node t old_n new_s =
    let work = Queue.create () in
    (* Queued targets hold a reference so that cascading deletions cannot
       remove them before their entry is processed; [forward] redirects
       through nodes that were themselves substituted meanwhile. *)
    let forward : signal Itbl.t = Itbl.create 8 in
    let rec resolve s =
      match Itbl.find_opt forward (node_of_signal s) with
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
      if (not t.dead.(o)) && node_of_signal s <> o then begin
        (* primary outputs *)
        for i = 0 to t.num_pos - 1 do
          let po = t.pos.(i) in
          if node_of_signal po = o then
            set_po t i (complement_if (is_complemented po) s)
        done;
        (* parent gates: each distinct parent processed once per edge batch *)
        let parents = List.sort_uniq Int.compare t.fanouts.(o) in
        List.iter
          (fun p ->
            if not t.dead.(p) then begin
              strash_remove t p;
              let old_fanins = t.fanins.(p) in
              let new_fanins =
                Array.map
                  (fun e ->
                    if node_of_signal e = o then complement_if (is_complemented e) s
                    else e)
                  old_fanins
              in
              (* detach old edges, attach the rewired ones *)
              Array.iter (fun e -> remove_one_fanout t (node_of_signal e) p) old_fanins;
              t.fanins.(p) <- new_fanins;
              add_fanout_edges t p;
              (* renormalize: the parent may simplify or merge *)
              let kind = t.kinds.(p) in
              match Spec.normalize kind new_fanins with
              | Norm_signal s2 -> push p s2
              | Norm_node (kind', fanins, out_c) ->
                if (not out_c) && Kind.equal kind' kind && same_fanins fanins new_fanins
                then begin
                  (* canonical as-is: merge with an existing node or claim
                     the hash entry *)
                  let q = strash_find t kind new_fanins in
                  if q <> 0 then push p (signal_of_node q) else strash_insert t p
                end
                else
                  (* normalization changed shape: build the canonical node
                     and substitute the parent by it *)
                  push p (create_node t kind new_fanins)
            end)
          parents;
        Itbl.replace forward o s;
        (* the old node should now be unreferenced *)
        if t.refs.(o) = 0 then take_out_node t o
      end
      else if
        (not t.dead.(o)) && is_gate t o && in_normal_form t o
        && strash_find t t.kinds.(o) t.fanins.(o) = 0
      then begin
        (* [o] resolves to itself: it was queued for a gate that was then
           merged into [o], and stays.  If its key is free it takes it
           back; with fanins not in normal form it stays off the table. *)
        strash_insert t o
      end;
      (* release the queue-hold on the target *)
      let r = decr_ref t (node_of_signal s) in
      if r = 0 then take_out_node t (node_of_signal s)
    done

  (* -- debug -- *)

  (* Structural invariants, used by tests and assertions: live nodes point
     at live children, reference counts equal fanout-edge plus PO counts,
     fanout lists mirror fanin edges, and the strash chains hold live gates
     only, each once under its current key and found first by a lookup of
     it, with every live gate in normal form among them. *)
  let check_integrity t =
    let errors = ref [] in
    let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
    let expected_refs = Array.make t.size 0 in
    for n = 0 to t.size - 1 do
      if not t.dead.(n) then
        Array.iter
          (fun s ->
            let c = node_of_signal s in
            if t.dead.(c) then err "live node %d has dead fanin %d" n c;
            expected_refs.(c) <- expected_refs.(c) + 1;
            if not (List.exists (fun p -> p = n) t.fanouts.(c)) then
              err "node %d missing from fanout of %d" n c)
          t.fanins.(n)
    done;
    for i = 0 to t.num_pos - 1 do
      let c = node_of_signal t.pos.(i) in
      if t.dead.(c) then err "PO %d drives dead node %d" i c;
      expected_refs.(c) <- expected_refs.(c) + 1
    done;
    for n = 0 to t.size - 1 do
      if (not t.dead.(n)) && t.refs.(n) <> expected_refs.(n) then
        err "node %d refs=%d expected=%d" n t.refs.(n) expected_refs.(n);
      if not t.dead.(n) then
        List.iter (fun p -> if t.dead.(p) then err "node %d has dead fanout %d" n p) t.fanouts.(n)
    done;
    (* strash: walk every chain (bounded, so a cycle cannot hang the check) *)
    let chained = Array.make t.size 0 and on_chains = ref 0 in
    Array.iteri
      (fun b head ->
        let rec walk n steps =
          if n <> 0 && steps <= t.size then begin
            incr on_chains;
            chained.(n) <- chained.(n) + 1;
            if t.dead.(n) || not (is_gate t n) then err "strash holds dead or non-gate node %d" n
            else if bucket t t.kinds.(n) t.fanins.(n) <> b then
              err "strash holds node %d under a stale key" n;
            walk t.next.(n) (steps + 1)
          end
        in
        walk head 0)
      t.buckets;
    let live_gates = ref 0 in
    for n = 0 to t.size - 1 do
      if (not t.dead.(n)) && is_gate t n then begin
        incr live_gates;
        if chained.(n) > 0 then begin
          let found = strash_find t t.kinds.(n) t.fanins.(n) in
          if found <> n then err "hashed gate %d shares its key with gate %d" n found
        end
        else if in_normal_form t n then err "gate %d is in normal form but not hashed" n
      end;
      if chained.(n) > 1 then err "node %d is chained %d times" n chained.(n)
    done;
    if !on_chains <> t.entries then
      err "strash chains hold %d gates, entry count is %d" !on_chains t.entries;
    if t.entries > Array.length t.buckets then
      err "strash holds %d gates in %d buckets" t.entries (Array.length t.buckets);
    if !live_gates <> t.num_gates then
      err "%d live gates, gate count is %d" !live_gates t.num_gates;
    List.rev !errors
end
