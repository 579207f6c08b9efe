(* Genlog: generic, scalable logic synthesis — the public umbrella API.

   This library reproduces "Scalable Generic Logic Synthesis: One Approach
   to Rule Them All" (DAC 2019).  The architecture follows the paper's
   four layers:

   {ol
   {- {!Network.Intf.NETWORK} — the network interface API (module types);}
   {- the functors under {!Algo} — algorithms written once against that
      interface (rewriting, resubstitution, refactoring, balancing, LUT
      mapping, cut enumeration, CEC, ...);}
   {- {!Aig}, {!Mig}, {!Xag}, {!Xmg}, {!Klut} — network implementations
      with structural hashing and complemented edges;}
   {- performance tweaks — e.g. {!Algo.Rewrite_aig} (specialized AIG
      rewriting) and the per-representation exact-synthesis encodings in
      {!Exact.Synth}.}}

   Typical use:
   {[
     let aig = Genlog.Suite.build "adder" in
     let env = Genlog.Flow.make_env Genlog.Run_config.Aig in
     let module F = Genlog.Flow.Make (Genlog.Aig) in
     let optimized = F.run_script env aig Genlog.Script.compress2rs in
     let module L = Genlog.Lutmap.Make (Genlog.Aig) in
     let mapping = L.map optimized ~k:6 ()
   ]} *)

(* truth tables and Boolean function utilities *)
module Tt = Kitty.Tt
module Npn = Kitty.Npn
module Isop = Kitty.Isop
module Cube = Kitty.Cube
module Factor = Kitty.Factor

(* network representations (paper layer 3) *)
module Signal = Network.Signal
module Kind = Network.Kind
module Intf = Network.Intf
module Aig = Network.Aig
module Mig = Network.Mig
module Xag = Network.Xag
module Xmg = Network.Xmg
module Klut = Network.Klut
module Convert = Network.Convert
module Build = Network.Build
module Topo = Network.Topo

(* generic algorithms (paper layer 2) *)
module Depth = Algo.Depth
module Simulate = Algo.Simulate
module Cuts = Algo.Cuts
module Reconv = Algo.Reconv
module Window = Algo.Window
module Mffc = Algo.Mffc
module Balance = Algo.Balance
module Rewrite = Algo.Rewrite
module Rewrite_aig = Algo.Rewrite_aig
module Mig_algebraic = Algo.Mig_algebraic
module Fraig = Algo.Fraig
module Refactor = Algo.Refactor
module Resub = Algo.Resub
module Lutmap = Algo.Lutmap
module Cec = Algo.Cec
module Cost = Algo.Cost

(* SAT and exact synthesis *)
module Sat = Satkit.Solver
module Sat_lit = Satkit.Lit
module Dimacs = Satkit.Dimacs
module Exact_chain = Exact.Chain
module Exact_synth = Exact.Synth
module Exact_store = Exact.Store
module Exact_tables = Exact.Tables
module Database = Exact.Database
module Decode = Exact.Decode

(* I/O *)
module Aiger = Lsio.Aiger
module Blif = Lsio.Blif

(* benchmark generators *)
module Blocks = Lsgen.Blocks
module Control = Lsgen.Control
module Suite_gen = Lsgen.Suite

module Suite = Lsgen.Suite.Make (Network.Aig)

(* observability *)
module Trace = Obs.Trace
module Chrome = Obs.Chrome
module Report = Obs.Report
module Json = Obs.Json
module Runmeta = Obs.Runmeta
module Bench_json = Obs.Bench_json

(* flows *)
module Script = Flow.Script
module Run_config = Flow.Run_config
module Flow = struct
  include Flow.Engine

  module Run_config = Flow.Run_config
  module Portfolio = Flow.Portfolio
  module Specialized_aig = Flow.Specialized_aig
  module Partition = Flow.Partition
  module Parmap = Flow.Parmap
end
