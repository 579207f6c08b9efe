(* Domain-parallel map over a shared work queue.

   Jobs live in one array and idle workers steal the next unclaimed index
   through a single atomic cursor — the simplest work-stealing deque
   degenerate (one global queue, steal = fetch_and_add), which is the right
   trade-off here: partition optimization jobs are coarse (milliseconds to
   seconds each), so queue contention is irrelevant and the atomic cursor
   gives perfect dynamic load balancing without per-worker deques.

   Each worker owns private state built by [init] (index 0 is the calling
   domain).  This matters because a trace child sink is single-writer, so
   every worker must build its own.  The per-worker states are returned in
   worker order so the caller can merge trace children deterministically
   (join order, like the portfolio does).

   Failure model: [map_results] isolates jobs — every item yields either
   [Ok result] or [Error {index; exn; backtrace}], and one bad item never
   cancels the others.  A job runs once: the work is deterministic, so
   running it again could only rescue an injected fault. *)

type job_error = {
  err_index : int;  (* which item failed *)
  err_exn : exn;  (* what it raised, or [Cancelled] *)
  err_backtrace : Printexc.raw_backtrace;
}

(* An item never started because the stop hook returned this reason. *)
exception Cancelled of string

let () =
  Printexc.register_printer (function
    | Cancelled reason -> Some ("Parmap.Cancelled " ^ reason)
    | _ -> None)

(* Per-item isolation: [stop] is polled before each steal — once it
   returns [Some reason] ("deadline", "interrupt") the remaining unclaimed
   items are marked [Cancelled reason] instead of run, so the caller can
   report exactly which work was skipped; items already running finish.
   The [parmap.job] fault point fires inside the per-item protection, like
   any real failure. *)
let map_results (type s a b) ?(jobs = Domain.recommended_domain_count ())
    ?(stop = fun () -> None) ~(init : int -> s) ~(f : s -> a -> b)
    (items : a array) : (b, job_error) result array * s array =
  let n = Array.length items in
  let jobs = max 1 (min jobs (max 1 n)) in
  let results : (b, job_error) result option array = Array.make n None in
  let states : s option array = Array.make jobs None in
  let cursor = Atomic.make 0 in
  let error i exn bt =
    Error { err_index = i; err_exn = exn; err_backtrace = bt }
  in
  let worker k () =
    let state = init k in
    states.(k) <- Some state;
    let rec steal () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < n then begin
        results.(i) <-
          Some
            (match stop () with
            | Some reason ->
              error i (Cancelled reason) (Printexc.get_callstack 0)
            | None -> (
              match
                if Fault.active () then Fault.fire "parmap.job";
                f state items.(i)
              with
              | r -> Ok r
              | exception e -> error i e (Printexc.get_raw_backtrace ())));
        steal ()
      end
    in
    steal ()
  in
  let domains = List.init (jobs - 1) (fun k -> Domain.spawn (worker (k + 1))) in
  worker 0 ();
  List.iter Domain.join domains;
  let get = function Some r -> r | None -> assert false in
  (Array.map get results, Array.map get states)
