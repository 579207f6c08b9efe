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
     and the priority cap, through a word-level fast path for cuts of at
     most 6 leaves (the common case for k <= 6). *)

open Kitty

module Make (N : Network.Intf.TRAVERSABLE) = struct
  module T = Network.Topo.Make (N)

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
  let subset_len a la b lb =
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
  let merge_into k a la b out =
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

  let index_of leaves x =
    let rec go i = if leaves.(i) = x then i else go (i + 1) in
    go 0

  (* express a child-cut function over the merged leaves (generic slow
     path, used when the merged cut has more than 6 leaves) *)
  let remap child merged =
    let m = Array.length merged in
    if Array.length child.leaves = 0 then
      if Tt.is_const1 child.tt then Tt.const1 m else Tt.const0 m
    else begin
      let args =
        Array.map (fun leaf -> Tt.nth_var m (index_of merged leaf)) child.leaves
      in
      Tt.apply child.tt args
    end

  (* The word-level fast path manipulates <= 64-bit tables as two native
     32-bit halves: Int64 arithmetic allocates a box per operation, which
     dominated the kernel profile, while native ints stay unboxed. *)
  let mask32 = 0xFFFFFFFF

  (* Meaningful low/high bits of a table over [n] <= 6 variables. *)
  let half_masks n =
    if n >= 6 then (mask32, mask32)
    else ((1 lsl (1 lsl n)) - 1, 0)

  (* Projection patterns of variables 0..5 in the 64-bit minterm space,
     split into halves. *)
  let proj_lo = [| 0xAAAAAAAA; 0xCCCCCCCC; 0xF0F0F0F0; 0xFF00FF00; 0xFFFF0000; 0 |]
  let proj_hi = [| 0xAAAAAAAA; 0xCCCCCCCC; 0xF0F0F0F0; 0xFF00FF00; 0xFFFF0000; mask32 |]

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
    (* Node local functions.  LUT gates carry their own table per node, so
       caching them under their kind would conflate distinct same-arity
       functions; only the fixed kinds (AND/XOR/MAJ), whose function is
       determined by (kind, arity), go through the cache. *)
    let node_fn_cache = Hashtbl.create 16 in
    let node_fn n =
      match N.gate_kind net n with
      | Network.Kind.Lut tt -> tt
      | kind -> (
        let key = (kind, N.fanin_size net n) in
        match Hashtbl.find_opt node_fn_cache key with
        | Some f -> f
        | None ->
          let f = N.node_function net n in
          Hashtbl.replace node_fn_cache key f;
          f)
    in
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
    (* leaf positions of a child cut within the merged cut (fast path) *)
    let pos = Array.make 6 0 in
    (* expanded fanin words as native halves (fast path) *)
    let words_lo = Array.make (max 1 N.max_fanin) 0 in
    let words_hi = Array.make (max 1 N.max_fanin) 0 in
    let cut_depth leaves mlen =
      let d = ref 0 in
      for i = 0 to mlen - 1 do
        if depth.(leaves.(i)) > !d then d := depth.(leaves.(i))
      done;
      !d
    in
    (* strict priority order; smaller (size, depth) pairs come first for
       [`Small], larger sizes first for [`Large] *)
    let precedes len1 d1 len2 d2 =
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
    (* Expand the table of child cut [c] (at most 6 leaves, single word)
       into the merged leaf space [leaves[0..mlen)]; writes the native
       halves into [words_lo]/[words_hi] at index [fi]. *)
    let expand_child fi (c : cut) leaves mlen =
      let nc = Array.length c.leaves in
      if nc = mlen then begin
        (* leaf sets are equal: the table carries over unchanged *)
        let w = Tt.to_int64 c.tt in
        words_lo.(fi) <- Int64.to_int (Int64.logand w 0xFFFFFFFFL);
        words_hi.(fi) <- Int64.to_int (Int64.shift_right_logical w 32)
      end
      else begin
        let j = ref 0 in
        for i = 0 to nc - 1 do
          while leaves.(!j) <> c.leaves.(i) do
            incr j
          done;
          pos.(i) <- !j
        done;
        if nc = 1 then begin
          (* a 1-leaf cut is the (possibly complemented) projection *)
          let p = pos.(0) in
          let lo_m, hi_m = half_masks mlen in
          if Tt.get_bit c.tt 1 = 1 then begin
            words_lo.(fi) <- proj_lo.(p) land lo_m;
            words_hi.(fi) <- proj_hi.(p) land hi_m
          end
          else begin
            words_lo.(fi) <- lnot proj_lo.(p) land lo_m;
            words_hi.(fi) <- lnot proj_hi.(p) land hi_m
          end
        end
        else begin
          (* nc < mlen <= 6, so the child table fits 32 bits *)
          let cw = Int64.to_int (Tt.to_int64 c.tt) in
          let lo = ref 0 and hi = ref 0 in
          for mm = 0 to (1 lsl mlen) - 1 do
            let cm = ref 0 in
            for i = 0 to nc - 1 do
              if (mm lsr pos.(i)) land 1 = 1 then cm := !cm lor (1 lsl i)
            done;
            if (cw lsr !cm) land 1 = 1 then
              if mm < 32 then lo := !lo lor (1 lsl mm)
              else hi := !hi lor (1 lsl (mm - 32))
          done;
          words_lo.(fi) <- !lo;
          words_hi.(fi) <- !hi
        end
      end
    in
    (* Truth table of a surviving cut from its chosen child cuts. *)
    let compute_tt n fanins leaves children =
      let nf = Array.length fanins in
      let mlen = Array.length leaves in
      if mlen <= 6 then begin
        (* word-level fast path: every child table fits one word because its
           leaf set is contained in the merged one *)
        let lo_m, hi_m = half_masks mlen in
        for fi = 0 to nf - 1 do
          let c = children.(fi) in
          if Array.length c.leaves = 0 then
            if Tt.is_const1 c.tt then begin
              words_lo.(fi) <- lo_m;
              words_hi.(fi) <- hi_m
            end
            else begin
              words_lo.(fi) <- 0;
              words_hi.(fi) <- 0
            end
          else expand_child fi c leaves mlen;
          if N.is_complemented fanins.(fi) then begin
            words_lo.(fi) <- lnot words_lo.(fi) land lo_m;
            words_hi.(fi) <- lnot words_hi.(fi) land hi_m
          end
        done;
        let out_lo = ref 0 and out_hi = ref 0 in
        (match N.gate_kind net n with
        | Network.Kind.And ->
          out_lo := words_lo.(0);
          out_hi := words_hi.(0);
          for fi = 1 to nf - 1 do
            out_lo := !out_lo land words_lo.(fi);
            out_hi := !out_hi land words_hi.(fi)
          done
        | Network.Kind.Xor ->
          out_lo := words_lo.(0);
          out_hi := words_hi.(0);
          for fi = 1 to nf - 1 do
            out_lo := !out_lo lxor words_lo.(fi);
            out_hi := !out_hi lxor words_hi.(fi)
          done
        | Network.Kind.Maj ->
          let a = words_lo.(0) and b = words_lo.(1) and c = words_lo.(2) in
          out_lo := a land b lor (a land c) lor (b land c);
          let a = words_hi.(0) and b = words_hi.(1) and c = words_hi.(2) in
          out_hi := a land b lor (a land c) lor (b land c)
        | Network.Kind.Lut ltt ->
          for mm = 0 to (1 lsl mlen) - 1 do
            let idx = ref 0 in
            if mm < 32 then begin
              for fi = 0 to nf - 1 do
                if (words_lo.(fi) lsr mm) land 1 = 1 then
                  idx := !idx lor (1 lsl fi)
              done
            end
            else
              for fi = 0 to nf - 1 do
                if (words_hi.(fi) lsr (mm - 32)) land 1 = 1 then
                  idx := !idx lor (1 lsl fi)
              done;
            if Tt.get_bit ltt !idx = 1 then
              if mm < 32 then out_lo := !out_lo lor (1 lsl mm)
              else out_hi := !out_hi lor (1 lsl (mm - 32))
          done
        | Network.Kind.Const | Network.Kind.Pi -> assert false);
        Tt.of_int64 mlen
          (Int64.logor
             (Int64.shift_left (Int64.of_int !out_hi) 32)
             (Int64.logand (Int64.of_int !out_lo) 0xFFFFFFFFL))
      end
      else begin
        let args =
          Array.init nf (fun fi ->
              let v = remap children.(fi) leaves in
              if N.is_complemented fanins.(fi) then Tt.( ~: ) v else v)
        in
        Tt.apply (node_fn n) args
      end
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
