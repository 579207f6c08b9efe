(* The typed run configuration. *)

module RC = Flow.Run_config

let test_representation_strings () =
  Alcotest.(check bool)
    "one name per representation" true
    (RC.representations
    = [ ("aig", RC.Aig); ("mig", RC.Mig); ("xag", RC.Xag); ("xmg", RC.Xmg) ]);
  List.iter
    (fun (name, r) ->
      Alcotest.(check string) "to_string is the table's name" name
        (RC.representation_to_string r))
    RC.representations

let suite =
  [
    Alcotest.test_case "representation strings" `Quick
      test_representation_strings;
  ]
