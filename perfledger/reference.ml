(* Each paper_tables row's objective (lower is better: area, mu + k sigma,
   sigma, or -sigma for max-sigma rows), recorded from the release build
   of the commit that introduced this benchmark.  A row may improve on
   its reference; it fails the run if it is worse by more than
   [objective_tolerance] of the reference, or if its constraint is
   violated by more than [feasibility_tolerance] (relative; the solver
   itself converges to 1e-7). *)

let objective_tolerance = 1e-3
let feasibility_tolerance = 1e-4

let tables =
  [
    ("apex1*/min area s.t. mu+3sigma<=D", 0x1.36c9dcde78ea9p+10);
    ("apex1*/min area s.t. mu+sigma<=D", 0x1.31d0db96c908fp+10);
    ("apex1*/min area s.t. mu<=D", 0x1.2f6590601037p+10);
    ("apex1*/min mu", 0x1.145099f56868fp+5);
    ("apex1*/min mu+3sigma", 0x1.19f59062fec89p+5);
    ("apex1*/min mu+sigma", 0x1.163331c473feap+5);
    ("apex1*/sum S_i", 0x1.ebp+9);
    ("apex2*/min area s.t. mu+3sigma<=D", 0x1.f041602f1cea1p+6);
    ("apex2*/min area s.t. mu+sigma<=D", 0x1.e51c531694145p+6);
    ("apex2*/min area s.t. mu<=D", 0x1.e04a78a4feca7p+6);
    ("apex2*/min mu", 0x1.d6cbba9a9d8bcp+3);
    ("apex2*/min mu+3sigma", 0x1.f167c6f41049cp+3);
    ("apex2*/min mu+sigma", 0x1.dfbb064b6190dp+3);
    ("apex2*/sum S_i", 0x1.d4p+6);
    ("fig2/min mu+3sigma", 0x1.e8f29b996ff07p+0);
    ("k2*/min area s.t. mu+3sigma<=D", 0x1.2bec474bbdad2p+11);
    ("k2*/min area s.t. mu+sigma<=D", 0x1.272b112128fd6p+11);
    ("k2*/min area s.t. mu<=D", 0x1.24d3a4e5b1a69p+11);
    ("k2*/min mu", 0x1.3a73265d4cb3ep+5);
    ("k2*/min mu+3sigma", 0x1.3f77c89fba195p+5);
    ("k2*/min mu+sigma", 0x1.3c2d6266359fdp+5);
    ("k2*/sum S_i", 0x1.a7p+10);
    ("table2/max sigma @ target 0", -0x1.623f1ccd25ccep-1);
    ("table2/max sigma @ target 1", -0x1.96ceb799b55d5p-1);
    ("table2/max sigma @ target 2", -0x1.ae99ee31937dcp-1);
    ("table2/min area", 0x1.cp+2);
    ("table2/min area @ target 0", 0x1.d3a191e92a5eep+3);
    ("table2/min area @ target 1", 0x1.417e29ec55446p+3);
    ("table2/min area @ target 2", 0x1.d69f9cf254014p+2);
    ("table2/min mu", 0x1.51766fff54c19p+2);
    ("table2/min sigma @ target 0", 0x1.36285b0cf9bcdp-1);
    ("table2/min sigma @ target 1", 0x1.5aded4c05dcf1p-1);
    ("table2/min sigma @ target 2", 0x1.9a47bbdea4d2dp-1);
    ("table3/max sigma", -0x1.96ceb799b55d5p-1);
    ("table3/min area", 0x1.417e29ec55446p+3);
    ("table3/min sigma", 0x1.5aded4c05dcf1p-1);
  ]
