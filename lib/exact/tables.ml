(* Shipped NPN tables; see tables.mli.  [Tables_data] is generated by the
   dune rule from tables/*.glxs. *)

open Kitty

let max_vars = 4

let classes () =
  List.concat_map
    (fun n ->
      let seen = Hashtbl.create 256 in
      for v = 0 to (1 lsl (1 lsl n)) - 1 do
        let c, _ = Npn.canonize (Tt.of_int64 n (Int64.of_int v)) in
        Hashtbl.replace seen (Tt.to_hex c) c
      done;
      Hashtbl.fold (fun hex c acc -> (hex, c) :: acc) seen []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.map snd)
    (List.init (max_vars + 1) Fun.id)

let files = Tables_data.files

(* Decoded tables by name.  A mutex rather than [Lazy]: forcing one lazy
   value from two domains at once raises. *)
let decoded : (string, Store.entry list) Hashtbl.t = Hashtbl.create 4
let lock = Mutex.create ()

let find config =
  let fp = Store.fingerprint config in
  List.find_opt (fun (_, data) -> Store.header_fingerprint data = Some fp) files
  |> Option.map (fun (name, data) ->
         Mutex.protect lock (fun () ->
             match Hashtbl.find_opt decoded name with
             | Some entries -> entries
             | None ->
               let l = Store.decode ~config ~source:("table " ^ name) data in
               Store.print_warnings l;
               Hashtbl.replace decoded name l.Store.entries;
               l.Store.entries))
