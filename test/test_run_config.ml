(* The typed run configuration. *)

module RC = Flow.Run_config

let test_representation_strings () =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        "round-trips" true
        (RC.representation_of_string (RC.representation_to_string r) = Some r))
    [ RC.Aig; RC.Mig; RC.Xag; RC.Xmg ];
  Alcotest.(check bool)
    "unknown rejected" true
    (RC.representation_of_string "klut" = None)

let suite =
  [
    Alcotest.test_case "representation strings" `Quick
      test_representation_strings;
  ]
