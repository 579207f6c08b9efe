(* Domain-parallel map over a shared work queue.

   Jobs live in one array and idle workers steal the next unclaimed index
   through a single atomic cursor — the simplest work-stealing deque
   degenerate (one global queue, steal = fetch_and_add), which is the right
   trade-off here: partition optimization jobs are coarse (milliseconds to
   seconds each), so queue contention is irrelevant and the atomic cursor
   gives perfect dynamic load balancing without per-worker deques.

   Each worker owns private state built by [init] (index 0 is the calling
   domain).  This matters because flow state is not shareable across
   domains: an [Engine.env] carries a mutable exact-synthesis database and
   a trace child sink is single-writer, so every worker must build its
   own.  The per-worker states are returned in worker order so the caller
   can merge trace children deterministically (join order, like the
   portfolio does).

   Failure model: [map_results] isolates jobs — every item yields either
   [Ok result] or [Error {index; attempts; exn; backtrace}], one bad item
   never cancels the others, and transient failures get [retries] extra
   attempts. *)

type job_error = {
  err_index : int;  (* which item failed *)
  err_attempts : int;  (* attempts made (retries + 1), 0 when cancelled *)
  err_exn : exn;  (* the last attempt's exception *)
  err_backtrace : Printexc.raw_backtrace;
}

exception Cancelled

let () =
  Printexc.register_printer (function
    | Cancelled -> Some "Parmap.Cancelled"
    | _ -> None)

(* Per-item isolation: [stop] is polled before each steal — once it
   returns [true] (a SIGINT flag, typically) the remaining unclaimed
   items are marked [Cancelled] instead of run, so the caller can report
   exactly which work was skipped.  The [parmap.job] fault point fires
   inside the per-item protection and is therefore subject to retry like
   any real failure. *)
let map_results (type s a b) ?(jobs = Domain.recommended_domain_count ())
    ?(retries = 0) ?stop ~(init : int -> s) ~(f : s -> a -> b)
    (items : a array) : (b, job_error) result array * s array =
  let n = Array.length items in
  let jobs = max 1 (min jobs (max 1 n)) in
  let results : (b, job_error) result option array = Array.make n None in
  let states : s option array = Array.make jobs None in
  let cursor = Atomic.make 0 in
  let worker k () =
    let state = init k in
    states.(k) <- Some state;
    let rec steal () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < n then begin
        let cancelled = match stop with Some p -> p () | None -> false in
        if cancelled then
          results.(i) <-
            Some
              (Error
                 {
                   err_index = i;
                   err_attempts = 0;
                   err_exn = Cancelled;
                   err_backtrace = Printexc.get_callstack 0;
                 })
        else begin
          let rec attempt a =
            match
              if Fault.active () then Fault.fire "parmap.job";
              f state items.(i)
            with
            | r -> results.(i) <- Some (Ok r)
            | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              if a <= retries then attempt (a + 1)
              else
                results.(i) <-
                  Some
                    (Error
                       {
                         err_index = i;
                         err_attempts = a;
                         err_exn = e;
                         err_backtrace = bt;
                       })
          in
          attempt 1
        end;
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
