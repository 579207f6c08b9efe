(* DIMACS CNF reader/writer: the interchange format for SAT problems, so
   the solver can be exercised against external instances and CNFs built
   here (e.g. CEC miters) can be exported to other solvers. *)

exception Parse_error of string

(* Parse a DIMACS file into (num_vars, clauses); clauses use {!Lit}
   encoding. *)
let read (ic : in_channel) : int * int list list =
  let num_vars = ref 0 in
  let clauses = ref [] in
  let current = ref [] in
  let rec go () =
    match input_line ic with
    | exception End_of_file ->
      if !current <> [] then raise (Parse_error "unterminated clause")
    | line ->
      let line = String.trim line in
      if line = "" || line.[0] = 'c' then go ()
      else if line.[0] = 'p' then begin
        (match
           String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
         with
        | [ "p"; "cnf"; v; _c ] -> num_vars := int_of_string v
        | _ -> raise (Parse_error ("bad problem line: " ^ line)));
        go ()
      end
      else begin
        String.split_on_char ' ' line
        |> List.filter (fun s -> s <> "")
        |> List.iter (fun tok ->
               match int_of_string_opt tok with
               | None -> raise (Parse_error ("bad literal: " ^ tok))
               | Some 0 ->
                 clauses := List.rev !current :: !clauses;
                 current := []
               | Some v ->
                 let var = abs v - 1 in
                 if var + 1 > !num_vars then num_vars := var + 1;
                 current := Lit.of_var var ~negated:(v < 0) :: !current);
        go ()
      end
  in
  go ();
  (!num_vars, List.rev !clauses)

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read ic)

(* Load a DIMACS problem into a fresh solver. *)
let load_file path : Solver.t =
  let num_vars, clauses = read_file path in
  let s = Solver.create () in
  Solver.ensure_var s (num_vars - 1);
  List.iter (Solver.add_clause s) clauses;
  s

let write (oc : out_channel) ~num_vars (clauses : int list list) =
  Printf.fprintf oc "p cnf %d %d\n" num_vars (List.length clauses);
  List.iter
    (fun clause ->
      List.iter
        (fun l ->
          Printf.fprintf oc "%d "
            (if Lit.is_neg l then -(Lit.var l + 1) else Lit.var l + 1))
        clause;
      Printf.fprintf oc "0\n")
    clauses

let write_file path ~num_vars clauses =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> write oc ~num_vars clauses)
