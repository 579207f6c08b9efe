let () =
  Alcotest.run "genlog"
    [
      ("kitty", Test_kitty.suite);
      ("network", Test_network.suite);
      ("satkit", Test_satkit.suite);
      ("dimacs", Test_dimacs.suite);
      ("exact", Test_exact.suite);
      ("store", Test_store.suite);
      ("tables", Test_tables.suite);
      ("algo", Test_algo.suite);
      ("window", Test_window.suite);
      ("lsgen", Test_lsgen.suite);
      ("lsio", Test_lsio.suite);
      ("flow", Test_flow.suite);
      ("run_config", Test_run_config.suite);
      ("obs", Test_obs.suite);
      ("report", Test_report.suite);
      ("telemetry", Test_telemetry.suite);
      ("capabilities", Test_capabilities.suite);
      ("extensions", Test_extensions.suite);
      ("fault", Test_fault.suite);
      ("cost", Test_cost.suite);
      ("golden", Test_golden.suite);
      ("equiv", Test_equiv.suite);
      ("props", Test_props.suite);
    ]
