//! Full-pipeline tests: generate → write → read → preprocess → solve →
//! verify, plus limit behaviour.

use kdc_suite::graph::{gen, io};
use kdc_suite::kdc::{solver::preprocess_report, Solver, SolverConfig, Status};
use std::time::Duration;

#[test]
fn roundtrip_through_files_preserves_answers() {
    let dir = io::fresh_temp_dir("pipeline_tests");
    let mut rng = gen::seeded_rng(123);
    let g = gen::gnp(40, 0.25, &mut rng);

    let clq = dir.join("g.clq");
    io::write_dimacs(&g, &clq).unwrap();
    let edge = dir.join("g.txt");
    io::write_edge_list(&g, &edge).unwrap();

    let g1 = io::read_graph(&clq).unwrap();
    let g2 = io::read_graph(&edge).unwrap();
    assert_eq!(g1, g);
    assert_eq!(g2, g);

    for k in [1usize, 3] {
        let a = Solver::new(&g, k, SolverConfig::kdc()).solve().size();
        let b = Solver::new(&g1, k, SolverConfig::kdc()).solve().size();
        assert_eq!(a, b);
    }
}

#[test]
fn bundled_example_data_is_figure2() {
    let g = io::read_graph(std::path::Path::new("examples/data/figure2.clq")).unwrap();
    assert_eq!(g, kdc_suite::graph::named::figure2());
}

#[test]
fn preprocessing_report_is_consistent_with_solver() {
    let mut rng = gen::seeded_rng(9);
    let (g, _) = gen::planted_defective_clique(300, 15, 2, 0.02, &mut rng);
    let report = preprocess_report(&g, 2, &SolverConfig::kdc());
    let sol = Solver::new(&g, 2, SolverConfig::kdc()).solve();
    assert_eq!(report.initial.len(), sol.stats.initial_solution_size);
    assert_eq!(report.n0, sol.stats.preprocessed_n);
    assert_eq!(report.m0, sol.stats.preprocessed_m);
    assert!(report.n0 <= g.n());
    assert!(g.is_k_defective_clique(&report.initial, 2));
}

#[test]
fn degen_preprocessing_is_weaker_but_cheaper() {
    // Table 4's qualitative claim: kDC's preprocessing yields a no-larger
    // reduced graph and a no-smaller initial solution than kDC-Degen's.
    let mut rng = gen::seeded_rng(10);
    let g = gen::community(
        &gen::CommunityParams {
            communities: 5,
            community_size: 30,
            p_in: 0.5,
            p_out: 0.01,
        },
        &mut rng,
    );
    for k in [1usize, 5, 10] {
        let full = preprocess_report(&g, k, &SolverConfig::kdc());
        let degen = preprocess_report(&g, k, &SolverConfig::degen());
        assert!(full.initial.len() >= degen.initial.len(), "k={k}");
        assert!(full.n0 <= degen.n0, "k={k}");
        assert!(full.m0 <= degen.m0, "k={k}");
    }
}

#[test]
fn zero_time_limit_still_returns_valid_solution() {
    let mut rng = gen::seeded_rng(11);
    let g = gen::gnp(80, 0.4, &mut rng);
    let cfg = SolverConfig::kdc().with_time_limit(Duration::from_nanos(1));
    let sol = Solver::new(&g, 5, cfg).solve();
    assert!(g.is_k_defective_clique(&sol.vertices, 5));
    // With a 1 ns limit the search cannot finish on this instance.
    assert_eq!(sol.status, Status::TimedOut);
    // The heuristic floor still provides a non-trivial anytime answer.
    assert!(sol.size() >= 3);
}

#[test]
fn node_limit_one_returns_heuristic_answer() {
    let mut rng = gen::seeded_rng(12);
    let g = gen::gnp(60, 0.5, &mut rng);
    let cfg = SolverConfig::kdc().with_node_limit(1);
    let sol = Solver::new(&g, 3, cfg).solve();
    assert!(g.is_k_defective_clique(&sol.vertices, 3));
    assert!(sol.size() >= sol.stats.initial_solution_size);
}
