(* Allocation-light metrics registries: the fine-grained half of the
   observability layer, below the span/counter level of trace.ml.

   A registry belongs to one algorithm invocation and holds named
   counters and gauges.  Handles are looked up once outside the hot loop;
   recording into them is one store and never allocates, so metrics can
   sit inside per-node and per-cut loops.  A [Null] registry hands out a
   shared scratch handle whose updates go nowhere, so call sites need no
   branches — but hot loops should still guard with [enabled] to skip
   computing the recorded value at all.  [emit] renders the registry as
   one [Trace.Metrics] event; a registry built from a [Null] trace emits
   nothing. *)

type counter = { mutable c : int }

type item = Counter of counter | Gauge of counter

type registry = {
  algo : string;
  index : (string, item) Hashtbl.t;
  mutable rev_names : string list;  (* registration order, newest first *)
}

type t = Null | Reg of registry

let null = Null
let enabled = function Null -> false | Reg _ -> true

let create ~algo () =
  Reg { algo; index = Hashtbl.create 8; rev_names = [] }

(* The conventional constructor: a registry exactly when the trace is
   live, [Null] (free) otherwise. *)
let of_trace trace ~algo =
  if Trace.enabled trace then create ~algo () else Null

(* Scratch sink handed out by [Null] registries: shared, updated, never
   read. *)
let scratch_counter = { c = 0 }

let register reg name item =
  match Hashtbl.find_opt reg.index name with
  | Some existing -> existing
  | None ->
    Hashtbl.replace reg.index name item;
    reg.rev_names <- name :: reg.rev_names;
    item

let counter t name =
  match t with
  | Null -> scratch_counter
  | Reg reg -> (
    match register reg name (Counter { c = 0 }) with
    | Counter c -> c
    | Gauge _ -> invalid_arg ("Metrics.counter: " ^ name))

let gauge t name =
  match t with
  | Null -> scratch_counter
  | Reg reg -> (
    match register reg name (Gauge { c = 0 }) with
    | Gauge c -> c
    | Counter _ -> invalid_arg ("Metrics.gauge: " ^ name))

let incr c = c.c <- c.c + 1
let add c v = c.c <- c.c + v
let set c v = c.c <- v

(* Render the registry as one [Trace.Metrics] event, items in
   registration order.  Empty registries stay silent. *)
let emit t trace =
  match t with
  | Null -> ()
  | Reg reg ->
    if reg.rev_names <> [] then begin
      let counters = ref [] and gauges = ref [] in
      List.iter
        (fun name ->
          match Hashtbl.find reg.index name with
          | Counter c -> counters := (name, c.c) :: !counters
          | Gauge c -> gauges := (name, c.c) :: !gauges)
        reg.rev_names;
      Trace.metrics trace ~algo:reg.algo ~counters:!counters ~gauges:!gauges
    end
