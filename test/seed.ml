(* One knob for every random seed in the test suite.

   Each [Random.State.make] site routes its constant through [get] (or
   builds its state with [state], or its seed list with [list]), so a CI
   failure that prints a seed is replayable locally with

     GENLOG_TEST_SEED=<seed> dune runtest

   Without the environment override everything defaults to the historical
   constants, keeping the suite deterministic. *)

let override =
  match Sys.getenv_opt "GENLOG_TEST_SEED" with
  | None | Some "" -> None
  | Some s -> (
    match int_of_string_opt s with
    | Some n -> Some n
    | None ->
      Printf.eprintf "GENLOG_TEST_SEED=%S is not an integer; ignoring\n%!" s;
      None)

(* The seed actually used where the suite historically used [default]. *)
let get default = Option.value override ~default

(* A RNG state seeded with [get default]. *)
let state default = Random.State.make [| get default |]

(* A seed list: the historical list, or just the override when set (one
   replayed failure instead of the whole sweep). *)
let list defaults = match override with None -> defaults | Some s -> [ s ]

(* Iteration-budget multiplier for the fuzz suites: nightly CI runs with
   GENLOG_FUZZ_ITERS=10 for a 10x deeper sweep. *)
let fuzz_iters =
  match Sys.getenv_opt "GENLOG_FUZZ_ITERS" with
  | None | Some "" -> 1
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | _ ->
      Printf.eprintf "GENLOG_FUZZ_ITERS=%S is not a positive integer; using 1\n%!" s;
      1)

(* QCheck properties.  Without [~rand], QCheck_alcotest seeds itself at
   random (or from QCHECK_SEED), bypassing the override above; each
   property gets its own state seeded with [get 1], so GENLOG_TEST_SEED
   replays them too. *)
let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(state 1) t
