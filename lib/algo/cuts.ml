(* Bottom-up cut enumeration through the Cartesian-product method
   (paper §2.2.1): the cut set of a gate is the merge of its fanin cut
   sets, pruned to [cut_limit] priority cuts of at most [k] leaves, plus
   the trivial cut.  Truth tables are computed alongside (paper §2.2.2),
   expressed over the cut leaves in ascending node order.

   This is the signature-accelerated, array-based engine (see DESIGN.md,
   "Cut-engine internals"):

   - every cut carries a hashed leaf-set [signature]; the dominance test
     [subset a b] only runs after the O(1) pre-filter
     [sig_a land sig_b = sig_a] passes;
   - the Cartesian product threads sorted leaf arrays through per-level
     scratch buffers, so merging never re-sorts;
   - each node's cut set is a bounded array kept in priority order
     ((size, depth-estimate) per [prefer]); candidates are inserted in
     place and the worst cut is evicted on overflow;
   - truth tables are computed only for the cuts that survive dominance
     and the priority cap, at every width the same way: each chosen child
     cut's table is moved onto the merged leaves by [Tt.expand] (word-level
     variable swaps) and the gate is evaluated over them by
     [Simulate.gate_value], the evaluator windows, sweeping and the cost
     engines share. *)

open Kitty

module Make (N : Network.Intf.TRAVERSABLE) = struct
  module T = Network.Topo.Make (N)
  module Sim = Simulate.Make (N)

  type cut = {
    leaves : N.node array;  (* ascending node ids; never constants *)
    signature : int;        (* hashed leaf-set mask for dominance pre-filtering *)
    tt : Tt.t;              (* over [Array.length leaves] variables *)
  }

  type result = {
    cuts : cut array array;  (* indexed by node, priority order, trivial last *)
    k : int;
  }

  (* Native ints give 63 usable bits; leaf [l] hashes to bit [l mod 63]. *)
  let leaf_bit l = 1 lsl (l mod 63)

  (* Number of set bits; signatures carry at most ~2k bits, so the
     clear-lowest-bit loop beats a full SWAR popcount here. *)
  let popcount x =
    let c = ref 0 and v = ref x in
    while !v <> 0 do
      v := !v land (!v - 1);
      incr c
    done;
    !c

  let trivial_cut n =
    { leaves = [| n |]; signature = leaf_bit n; tt = Tt.nth_var 1 0 }

  let constant_cut = { leaves = [||]; signature = 0; tt = Tt.const0 0 }

  (* is sorted prefix [a[0..la)] a subset of sorted prefix [b[0..lb)]? *)
  let subset_len (a : int array) la (b : int array) lb =
    let rec go i j =
      if i >= la then true
      else if j >= lb then false
      else if a.(i) = b.(j) then go (i + 1) (j + 1)
      else if a.(i) > b.(j) then go i (j + 1)
      else false
    in
    go 0 0

  let subset a b = subset_len a (Array.length a) b (Array.length b)

  (* Merge the sorted prefix [a[0..la)] with the sorted array [b] into
     [out]; returns the merged length, or -1 when the union exceeds [k].
     [out] must hold at least [k] elements and be distinct from [a]. *)
  let merge_into k (a : int array) la (b : int array) (out : int array) =
    let lb = Array.length b in
    let rec go i j m =
      if i < la && j < lb then begin
        if m >= k then -1
        else begin
          let x = a.(i) and y = b.(j) in
          if x = y then begin
            out.(m) <- x;
            go (i + 1) (j + 1) (m + 1)
          end
          else if x < y then begin
            out.(m) <- x;
            go (i + 1) j (m + 1)
          end
          else begin
            out.(m) <- y;
            go i (j + 1) (m + 1)
          end
        end
      end
      else if i < la then
        if m + (la - i) > k then -1
        else begin
          Array.blit a i out m (la - i);
          m + (la - i)
        end
      else if m + (lb - j) > k then -1
      else begin
        Array.blit b j out m (lb - j);
        m + (lb - j)
      end
    in
    go 0 0 0

  (* Enumerate cuts for every node reachable from the outputs.

     [prefer] decides which cuts survive the [cut_limit] cap: rewriting
     wants small cuts (cheap replacement search), LUT mapping wants wide
     cuts (fewer LUTs in the cover).

     Under a live [trace] (default [Null], free) it reports one "cuts"
     counters event: the cuts offered, kept and truncated (priority-cap
     evictions and rejections) — the totals that tell whether [cut_limit]
     is a bottleneck on a given netlist. *)
  let enumerate (net : N.t) ?(k = 4) ?(cut_limit = 8) ?(prefer = `Small)
      ?(trace = Obs.Trace.null) () : result =
    let measuring = Obs.Trace.enabled trace in
    let offered = ref 0 and kept = ref 0 and truncated = ref 0 in
    let size = N.size net in
    let cuts = Array.make size [||] in
    cuts.(0) <- [| constant_cut |];
    N.foreach_pi net (fun n -> cuts.(n) <- [| trivial_cut n |]);
    (* structural depth, the tiebreaking estimate of the priority order *)
    let depth = Array.make size 0 in
    (* -- preallocated per-node working state, reused across nodes --

       The bounded cut set stores its entries in recycled slots: each slot
       owns a leaf buffer and a chosen-children buffer, so offering a
       candidate allocates nothing; leaf arrays are materialized only for
       the <= cut_limit - 1 cuts that survive a whole node. *)
    let max_cuts = max 0 (cut_limit - 1) in
    let num_slots = max_cuts + 1 in
    let slot_leaves = Array.init num_slots (fun _ -> Array.make (max 1 k) 0) in
    let slot_children =
      Array.init num_slots (fun _ -> Array.make (max 1 N.max_fanin) constant_cut)
    in
    (* pool.(pool_top..) would be in use; free slots live below [pool_top] *)
    let pool = Array.init num_slots (fun i -> i) in
    let pool_top = ref num_slots in
    let set_slot = Array.make (max 1 max_cuts) 0 in
    let set_len = Array.make (max 1 max_cuts) 0 in
    let set_sig = Array.make (max 1 max_cuts) 0 in
    let set_depth = Array.make (max 1 max_cuts) 0 in
    let count = ref 0 in
    (* chosen child cut per Cartesian-product level *)
    let chosen = Array.make (max 1 N.max_fanin) constant_cut in
    (* one merge buffer per Cartesian-product level *)
    let scratch = Array.init (N.max_fanin + 1) (fun _ -> Array.make (max 1 k) 0) in
    let cut_depth leaves mlen =
      let d = ref 0 in
      for i = 0 to mlen - 1 do
        if depth.(leaves.(i)) > !d then d := depth.(leaves.(i))
      done;
      !d
    in
    (* strict priority order; smaller (size, depth) pairs come first for
       [`Small], larger sizes first for [`Large] *)
    let precedes (len1 : int) (d1 : int) (len2 : int) (d2 : int) =
      match prefer with
      | `Small -> len1 < len2 || (len1 = len2 && d1 < d2)
      | `Large -> len1 > len2 || (len1 = len2 && d1 < d2)
    in
    (* Offer a merged candidate (leaf set in [merged[0..mlen)], chosen child
       cuts in [chosen[0..nf)]) to the bounded priority set. *)
    let offer merged mlen msig nf =
      if measuring then incr offered;
      (* dominated by an existing cut (equal sets included)? *)
      let dominated = ref false in
      let i = ref 0 in
      while (not !dominated) && !i < !count do
        let s = set_sig.(!i) in
        (if s land msig = s then
           let le = set_len.(!i) in
           if
             le <= mlen
             && subset_len slot_leaves.(set_slot.(!i)) le merged mlen
           then dominated := true);
        incr i
      done;
      if not !dominated then begin
        (* drop existing cuts the candidate dominates *)
        let j = ref 0 in
        for i = 0 to !count - 1 do
          let s = set_sig.(i) in
          let le = set_len.(i) in
          let drop =
            msig land s = msig && mlen <= le
            && subset_len merged mlen slot_leaves.(set_slot.(i)) le
          in
          if drop then begin
            pool.(!pool_top) <- set_slot.(i);
            incr pool_top
          end
          else begin
            if !j < i then begin
              set_slot.(!j) <- set_slot.(i);
              set_len.(!j) <- set_len.(i);
              set_sig.(!j) <- set_sig.(i);
              set_depth.(!j) <- set_depth.(i)
            end;
            incr j
          end
        done;
        count := !j;
        let d = cut_depth merged mlen in
        let p = ref 0 in
        while
          !p < !count
          && not (precedes mlen d set_len.(!p) set_depth.(!p))
        do
          incr p
        done;
        if !p >= max_cuts then begin
          (* rejected by the priority cap: a truncation of the cut set *)
          if measuring then incr truncated
        end
        else begin
          (* evict the worst cut when full, then shift and insert *)
          (if !count = max_cuts then begin
             pool.(!pool_top) <- set_slot.(max_cuts - 1);
             incr pool_top;
             if measuring then incr truncated
           end
           else incr count);
          for i = !count - 1 downto !p + 1 do
            set_slot.(i) <- set_slot.(i - 1);
            set_len.(i) <- set_len.(i - 1);
            set_sig.(i) <- set_sig.(i - 1);
            set_depth.(i) <- set_depth.(i - 1)
          done;
          decr pool_top;
          let slot = pool.(!pool_top) in
          Array.blit merged 0 slot_leaves.(slot) 0 mlen;
          Array.blit chosen 0 slot_children.(slot) 0 nf;
          set_slot.(!p) <- slot;
          set_len.(!p) <- mlen;
          set_sig.(!p) <- msig;
          set_depth.(!p) <- d
        end
      end
    in
    (* Truth table of a surviving cut: the gate over its chosen child
       cuts, each expanded onto the merged leaves. *)
    let compute_tt n fanins leaves children =
      Sim.gate_value net n (fun c ->
          let fi = ref 0 in
          while N.node_of_signal fanins.(!fi) <> c do
            incr fi
          done;
          let ch = children.(!fi) in
          Tt.expand ch.tt ~from:ch.leaves ~into:leaves)
    in
    List.iter
      (fun n ->
        let fanins = N.fanin net n in
        let nf = Array.length fanins in
        depth.(n) <-
          1
          + Array.fold_left
              (fun a s -> max a depth.(N.node_of_signal s))
              0 fanins;
        count := 0;
        pool_top := num_slots;
        for i = 0 to num_slots - 1 do
          pool.(i) <- i
        done;
        (* Cartesian product over fanin cut sets; [merged] stays sorted
           throughout, one scratch buffer per level *)
        let rec product i merged mlen msig =
          if i = nf then offer merged mlen msig nf
          else begin
            let ccs = cuts.(N.node_of_signal fanins.(i)) in
            for ci = 0 to Array.length ccs - 1 do
              let c = ccs.(ci) in
              let u = msig lor c.signature in
              (* the signature union underestimates the true union size *)
              if popcount u <= k then begin
                let out = scratch.(i) in
                let m = merge_into k merged mlen c.leaves out in
                if m >= 0 then begin
                  chosen.(i) <- c;
                  product (i + 1) out m u
                end
              end
            done
          end
        in
        product 0 [||] 0 0;
        let m = !count in
        let res = Array.make (m + 1) (trivial_cut n) in
        for i = 0 to m - 1 do
          let slot = set_slot.(i) in
          let leaves = Array.sub slot_leaves.(slot) 0 set_len.(i) in
          res.(i) <-
            {
              leaves;
              signature = set_sig.(i);
              tt = compute_tt n fanins leaves slot_children.(slot);
            }
        done;
        cuts.(n) <- res;
        if measuring then kept := !kept + m)
      (T.order net);
    if measuring then
      Obs.Trace.report trace ~algo:"cuts"
        [ ("offered", !offered); ("kept", !kept); ("truncated", !truncated) ];
    { cuts; k }

  let cuts_of r n = Array.to_list r.cuts.(n)
  let cuts_array r n = r.cuts.(n)
end
