(* BLIF writer/reader for k-LUT networks (the result of technology
   mapping).  LUT functions are emitted as ISOP covers; complemented
   primary-output signals are materialized as single-input inverter
   tables. *)

open Kitty
open Network

exception Parse_error of string

let write (t : Klut.t) (oc : out_channel) =
  Printf.fprintf oc ".model top\n";
  let name_of = Hashtbl.create (Klut.size t) in
  Hashtbl.replace name_of 0 "const0";
  Klut.foreach_pi t (fun n ->
      Hashtbl.replace name_of n (Printf.sprintf "pi%d" (Klut.pi_index t n)));
  Klut.foreach_gate t (fun n -> Hashtbl.replace name_of n (Printf.sprintf "n%d" n));
  Printf.fprintf oc ".inputs";
  Klut.foreach_pi t (fun n -> Printf.fprintf oc " %s" (Hashtbl.find name_of n));
  Printf.fprintf oc "\n.outputs";
  for i = 0 to Klut.num_pos t - 1 do
    Printf.fprintf oc " po%d" i
  done;
  Printf.fprintf oc "\n";
  (* constant driver, in case some output needs it *)
  let const_used = ref false in
  Klut.foreach_po t (fun s -> if Klut.node_of_signal s = 0 then const_used := true);
  if !const_used then Printf.fprintf oc ".names const0\n";
  (* .names bodies may appear in any order in BLIF, so iterate directly *)
  Klut.foreach_gate t (fun n ->
      let fanins = Klut.fanin t n in
      let tt =
        match Klut.gate_kind t n with
        | Kind.Lut tt -> tt
        | k -> Kind.function_of k (Array.length fanins)
      in
      Printf.fprintf oc ".names";
      Array.iter
        (fun s -> Printf.fprintf oc " %s" (Hashtbl.find name_of (Klut.node_of_signal s)))
        fanins;
      Printf.fprintf oc " %s\n" (Hashtbl.find name_of n);
      let cubes = Isop.of_tt tt in
      List.iter
        (fun cube ->
          for v = 0 to Array.length fanins - 1 do
            if Cube.has_literal cube v then
              output_char oc (if Cube.polarity cube v then '1' else '0')
            else output_char oc '-'
          done;
          Printf.fprintf oc " 1\n")
        cubes);
  (* outputs, inserting inverters for complemented signals *)
  let po_index = ref (-1) in
  Klut.foreach_po t (fun s ->
      incr po_index;
      let src = Hashtbl.find name_of (Klut.node_of_signal s) in
      if Klut.is_complemented s then begin
        Printf.fprintf oc ".names %s po%d\n0 1\n" src !po_index
      end
      else Printf.fprintf oc ".names %s po%d\n1 1\n" src !po_index);
  Printf.fprintf oc ".end\n"

let write_file (t : Klut.t) (path : string) =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write t oc)

(* Minimal BLIF reader: .model/.inputs/.outputs/.names with 1-polarity
   output cover lines (the subset the writer produces, which is also what
   most mapped BLIF files use). *)
let read (ic : in_channel) : Klut.t =
  let t = Klut.create () in
  let signals : (string, Klut.signal) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace signals "const0" (Klut.constant false);
  let outputs = ref [] in
  (* read logical lines, honouring '\' continuations *)
  let rec read_line () =
    match input_line ic with
    | exception End_of_file -> None
    | line ->
      let line = String.trim line in
      if line = "" || String.length line >= 1 && line.[0] = '#' then read_line ()
      else if String.length line > 0 && line.[String.length line - 1] = '\\' then
        match read_line () with
        | Some rest -> Some (String.sub line 0 (String.length line - 1) ^ " " ^ rest)
        | None -> Some (String.sub line 0 (String.length line - 1))
      else Some line
  in
  let pending = ref None in
  let next_line () =
    match !pending with
    | Some l ->
      pending := None;
      Some l
    | None -> read_line ()
  in
  let rec parse_names args =
    match args with
    | [] -> raise (Parse_error ".names without target")
    | _ ->
      let inputs = Array.of_list (List.filteri (fun i _ -> i < List.length args - 1) args) in
      let target = List.nth args (List.length args - 1) in
      (* collect cover lines *)
      let cubes = ref [] in
      let rec gather () =
        match next_line () with
        | None -> ()
        | Some l ->
          if String.length l > 0 && l.[0] = '.' then pending := Some l
          else begin
            (match String.split_on_char ' ' l with
            | [ pattern; "1" ] -> cubes := pattern :: !cubes
            | [ "1" ] -> cubes := "" :: !cubes
            | _ -> raise (Parse_error ("unsupported cover line: " ^ l)));
            gather ()
          end
      in
      gather ();
      let k = Array.length inputs in
      if k > Tt.max_vars then
        raise
          (Parse_error
             (Printf.sprintf ".names with %d inputs (at most %d)" k Tt.max_vars));
      let tt = ref (Tt.const0 k) in
      List.iter
        (fun pattern ->
          if String.length pattern <> k then
            raise (Parse_error "cover width mismatch");
          let cube = ref (Tt.const1 k) in
          String.iteri
            (fun i c ->
              match c with
              | '1' -> cube := Tt.( &: ) !cube (Tt.nth_var k i)
              | '0' -> cube := Tt.( &: ) !cube (Tt.( ~: ) (Tt.nth_var k i))
              | '-' -> ()
              | _ -> raise (Parse_error "bad cover character"))
            pattern;
          tt := Tt.( |: ) !tt !cube)
        !cubes;
      let fanins =
        Array.map
          (fun name ->
            match Hashtbl.find_opt signals name with
            | Some s -> s
            | None -> raise (Parse_error ("undefined signal " ^ name)))
          inputs
      in
      let s =
        if k = 0 then Klut.constant (not (Tt.is_const0 !tt))
        else Klut.create_lut t fanins !tt
      in
      Hashtbl.replace signals target s
  and parse () =
    match next_line () with
    | None -> ()
    | Some line ->
      (match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
      | ".model" :: _ -> ()
      | ".inputs" :: names ->
        List.iter (fun n -> Hashtbl.replace signals n (Klut.create_pi t)) names
      | ".outputs" :: names -> outputs := !outputs @ names
      | ".names" :: args -> parse_names args
      | [ ".end" ] -> ()
      | _ -> raise (Parse_error ("unsupported line: " ^ line)));
      parse ()
  in
  parse ();
  List.iter
    (fun name ->
      match Hashtbl.find_opt signals name with
      | Some s -> Klut.create_po t s
      | None -> raise (Parse_error ("undefined output " ^ name)))
    !outputs;
  t

let read_file (path : string) : Klut.t =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read ic)
