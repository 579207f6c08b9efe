(* ASCII AIGER (aag) reader and writer for And-inverter graphs.

   The EPFL benchmark suite ships as AIGER; supporting the format makes the
   tool a drop-in consumer of standard benchmark files.  Only the
   combinational subset (no latches) is handled. *)

open Network
module T = Topo.Make (Aig)

exception Parse_error of string

(* AIGER literal -> our signal.  AIGER: variable v has literals 2v (pos) /
   2v+1 (neg), 0 = false, 1 = true; our signals use the same convention, so
   translation is a node-index mapping only. *)

let write (t : Aig.t) (oc : out_channel) =
  (* compact node numbering: const = 0, PIs, then live gates in topo order *)
  let index = Hashtbl.create (Aig.size t) in
  Hashtbl.replace index 0 0;
  let next = ref 1 in
  Aig.foreach_pi t (fun n ->
      Hashtbl.replace index n !next;
      incr next);
  let gates = T.order t in
  List.iter
    (fun n ->
      Hashtbl.replace index n !next;
      incr next)
    gates;
  let lit s =
    let v = Hashtbl.find index (Aig.node_of_signal s) in
    (2 * v) + if Aig.is_complemented s then 1 else 0
  in
  let m = !next - 1 in
  Printf.fprintf oc "aag %d %d 0 %d %d\n" m (Aig.num_pis t) (Aig.num_pos t)
    (List.length gates);
  Aig.foreach_pi t (fun n -> Printf.fprintf oc "%d\n" (2 * Hashtbl.find index n));
  Aig.foreach_po t (fun s -> Printf.fprintf oc "%d\n" (lit s));
  List.iter
    (fun n ->
      let f = Aig.fanin t n in
      Printf.fprintf oc "%d %d %d\n"
        (2 * Hashtbl.find index n)
        (lit f.(0)) (lit f.(1)))
    gates

let write_file (t : Aig.t) (path : string) =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write t oc)

(* Header fields and literals are non-negative decimals; anything else is
   a [Parse_error], never a [Failure] from [int_of_string]. *)
let number what s =
  match int_of_string_opt s with
  | Some v when v >= 0 -> v
  | Some _ | None -> raise (Parse_error (Printf.sprintf "bad %s: %s" what s))

let read (ic : in_channel) : Aig.t =
  let line () = try input_line ic with End_of_file -> raise (Parse_error "unexpected EOF") in
  let header = line () in
  let m, i, l, o, a =
    match String.split_on_char ' ' (String.trim header) with
    | [ "aag"; m; i; l; o; a ] ->
      let field = number "header field" in
      (field m, field i, field l, field o, field a)
    | _ -> raise (Parse_error ("bad header: " ^ header))
  in
  if l <> 0 then raise (Parse_error "latches not supported");
  (* every section is read before anything is sized, so a header that
     overstates a count fails at end of file instead of allocating for it *)
  let lits what = function
    | [ v ] -> number what v
    | _ -> raise (Parse_error ("bad " ^ what ^ " line"))
  in
  let fields () = String.split_on_char ' ' (String.trim (line ())) in
  let inputs = List.init i (fun _ -> lits "input" (fields ())) in
  let outputs = List.init o (fun _ -> lits "output" (fields ())) in
  let and_lines =
    List.init a (fun _ ->
        match fields () with
        | [ x; y; z ] -> (number "literal" x, number "literal" y, number "literal" z)
        | _ -> raise (Parse_error "bad and line"))
  in
  let t = Aig.create ~initial_capacity:(i + a + 2) () in
  (* map AIGER variable -> our signal; sized by what the file defines, not
     by the header's M *)
  let map = Hashtbl.create (i + a + 1) in
  Hashtbl.replace map 0 (Aig.constant false);
  let define what l s =
    if l land 1 = 1 || l = 0 then raise (Parse_error ("bad " ^ what ^ " literal"));
    if l / 2 > m then raise (Parse_error "literal out of range");
    Hashtbl.replace map (l / 2) s
  in
  let signal_of l =
    let v = l / 2 in
    if v > m then raise (Parse_error "literal out of range");
    match Hashtbl.find_opt map v with
    | None -> raise (Parse_error "use before definition")
    | Some s -> Aig.complement_if (l land 1 = 1) s
  in
  List.iter (fun l -> define "input" l (Aig.create_pi t)) inputs;
  List.iter
    (fun (x, y, z) -> define "and output" x (Aig.create_and t (signal_of y) (signal_of z)))
    and_lines;
  List.iter (fun l -> Aig.create_po t (signal_of l)) outputs;
  t

let read_file (path : string) : Aig.t =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read ic)
