(* Prints an OCaml module that embeds the given files as string literals,
   named by basename without extension:

     let files = [ ("aig", "GLXS0001..."); ... ]

   The dune rule in lib/exact runs it over the shipped tables. *)

let () =
  print_string "let files = [\n";
  for i = 1 to Array.length Sys.argv - 1 do
    let path = Sys.argv.(i) in
    let data = In_channel.with_open_bin path In_channel.input_all in
    Printf.printf "  (%S, %S);\n"
      (Filename.remove_extension (Filename.basename path))
      data
  done;
  print_string "]\n"
