(* Layer 1 of the paper's architecture: the network interface API.

   The interface is a lattice of capability signatures rather than one
   monolithic module type.  Every algorithm in [Algo] is a functor over the
   smallest capability slice it actually uses — a depth computation demands
   [STRUCTURE] and [SCRATCH], never substitution or reference counting — so
   a network implementation that does not provide a required method simply
   does not type-check against that functor.  This is the OCaml analogue of
   the paper's per-algorithm compile-time static assertions, at honest
   granularity and with no dynamic polymorphism.

   Atomic capabilities:

     SIGNALS      pure signal algebra (no network value involved)
     STRUCTURE    read-only topology queries and iteration
     CONSTRUCT    node/PI/PO creation through the generic constructors
     REFCOUNT     reference counting for DAG-aware gain (paper §2.2.3)
     RESTRUCTURE  in-place substitution (paper §2.2.3)
     SCRATCH      per-node scratch values and traversal marks

   Named unions (the lattice points the algorithms actually sit at):

     BUILDER      SIGNALS + CONSTRUCT           circuit generators, decoders
     TRAVERSABLE  STRUCTURE + SCRATCH           topo, depth, cuts, simulation
     COUNTED      TRAVERSABLE + REFCOUNT        MFFC, windows, LUT mapping, cost
     SWEEPABLE    TRAVERSABLE + RESTRUCTURE     SAT sweeping (fraig)
     NETWORK      everything                    rewrite, refactor, resub, ...

   [NETWORK] remains the union of all capabilities, so any module that
   satisfied the old monolithic signature still satisfies every slice. *)

(** Pure signal algebra: complement-annotated node references (see
    {!Signal}).  No [t] — these functions never touch a network. *)
module type SIGNALS = sig
  type node = int
  (** Nodes are dense integer indices; node 0 is the constant-false node. *)

  type signal = Signal.t
  (** A complement-annotated node reference; see {!Signal}. *)

  val signal_of_node : node -> signal
  val node_of_signal : signal -> node
  val is_complemented : signal -> bool
  val complement : signal -> signal
  val complement_if : bool -> signal -> signal
  val constant : bool -> signal
end

(** Read-only structure: sizes, node predicates, fanin/fanout access and
    iteration.  Includes {!SIGNALS} so that structural traversals can
    follow edges. *)
module type STRUCTURE = sig
  type t

  include SIGNALS

  val name : string
  val max_fanin : int

  val size : t -> int
  val num_gates : t -> int
  val num_pis : t -> int
  val num_pos : t -> int
  val is_constant : t -> node -> bool
  val is_pi : t -> node -> bool
  val is_gate : t -> node -> bool
  val is_dead : t -> node -> bool
  val gate_kind : t -> node -> Kind.t
  val fanin : t -> node -> signal array
  val fanin_size : t -> node -> int
  val fanout : t -> node -> node list
  val po_at : t -> int -> signal
  val pis : t -> node array
  val pos : t -> signal array
  val pi_index : t -> node -> int

  (* iteration *)
  val foreach_node : t -> (node -> unit) -> unit
  val foreach_pi : t -> (node -> unit) -> unit
  val foreach_po : t -> (signal -> unit) -> unit
  val foreach_gate : t -> (node -> unit) -> unit
  val foreach_fanin : t -> node -> (signal -> unit) -> unit
  val gates : t -> node list

  val check_integrity : t -> string list
  (** Structural-invariant violations (empty when the network is sound);
      intended for tests and debugging. *)
end

(** Construction: primary inputs/outputs and the generic gate constructors
    (mandatory interface).  Signal complementation itself is pure — use
    {!SIGNALS}[.complement]; there is deliberately no [create_not]. *)
module type CONSTRUCT = sig
  type t
  type node = int
  type signal = Signal.t

  val create : ?initial_capacity:int -> unit -> t
  val create_pi : t -> signal
  val create_po : t -> signal -> unit
  val set_po : t -> int -> signal -> unit

  val create_and : t -> signal -> signal -> signal
  val create_or : t -> signal -> signal -> signal
  val create_xor : t -> signal -> signal -> signal
  val create_maj : t -> signal -> signal -> signal -> signal
  val create_ite : t -> signal -> signal -> signal -> signal
  val create_nary_and : t -> signal list -> signal
  val create_nary_or : t -> signal list -> signal
  val create_nary_xor : t -> signal list -> signal

  val create_node : t -> Kind.t -> signal array -> signal
  (** Native node creation (used by cloning and database instantiation). *)
end

(** Reference counting for DAG-aware gain computation (paper §2.2.3).
    The MFFC walk over these counters is [Algo.Mffc]. *)
module type REFCOUNT = sig
  type t
  type node = int

  val ref_count : t -> node -> int
  val incr_ref : t -> node -> int
  val decr_ref : t -> node -> int
end

(** In-place restructuring (paper §2.2.3). *)
module type RESTRUCTURE = sig
  type t
  type node = int
  type signal = Signal.t

  val substitute_node : t -> node -> signal -> unit
  val take_out_if_dead : t -> node -> unit
end

(** Scratch state for algorithms: per-node integer values and traversal
    marks. *)
module type SCRATCH = sig
  type t
  type node = int

  val set_value : t -> node -> int -> unit
  val value : t -> node -> int
  val new_traversal_id : t -> int
  val set_visited : t -> node -> int -> unit
  val visited : t -> node -> int
end

(* -- named unions -- *)

(** What circuit generators and chain decoders need: constructors plus the
    pure signal algebra, nothing structural. *)
module type BUILDER = sig
  type t

  include SIGNALS

  include
    CONSTRUCT with type t := t and type node := int and type signal := Signal.t
end

(** Read-only traversal: structure queries plus traversal marks. *)
module type TRAVERSABLE = sig
  include STRUCTURE
  include SCRATCH with type t := t and type node := int
end

(** Traversal plus reference counting (MFFCs, windows, mapping and the
    cost engines of [Algo.Cost], which price gain through MFFCs). *)
module type COUNTED = sig
  include TRAVERSABLE
  include REFCOUNT with type t := t and type node := int
end

(** Traversal plus substitution, without construction: enough to merge
    proven-equivalent nodes (SAT sweeping). *)
module type SWEEPABLE = sig
  include TRAVERSABLE

  include
    RESTRUCTURE
      with type t := t
       and type node := int
       and type signal := Signal.t
end

(** The full network interface API: the union of every capability. *)
module type NETWORK = sig
  include STRUCTURE

  include
    CONSTRUCT with type t := t and type node := int and type signal := Signal.t

  include REFCOUNT with type t := t and type node := int

  include
    RESTRUCTURE
      with type t := t
       and type node := int
       and type signal := Signal.t

  include SCRATCH with type t := t and type node := int
end
