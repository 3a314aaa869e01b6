//! Statistical acceptance tests for the fast stepping engine.
//!
//! [`FastProcess`] must reproduce the same laws the reference `DivProcess`
//! is validated against (`tests/theorem2_win_distribution.rs`,
//! `tests/final_stage.rs`): the Theorem 2 winner distribution and the
//! Lemma 5 two-opinion absorption law — and the analytic finish policy
//! must agree with full simulation.  All tests use fixed master seeds.
//!
//! The last group pins lookahead (pipelined) edge-sampler block stepping
//! on a graph larger than L2 to the plain per-step engine, bit for bit,
//! however the budget is chunked.

use div_core::{
    init, theory, FastProcess, FastRng, FastScheduler, FaultPlan, FaultSession, FinishPolicy,
    RunStatus,
};
use div_graph::{algo, generators, Graph};
use div_sim::stats::{wilson_interval, Z95, Z99};
use rand::{RngCore, SeedableRng};

#[test]
fn fast_winner_is_floor_or_ceil_on_complete_graph() {
    let n = 80;
    let g = generators::complete(n).unwrap();
    let trials = 120;
    let ok = div_sim::run_trials(trials, 0xFA_01, |_, seed| {
        let mut rng = FastRng::seed_from_u64(seed);
        let opinions = init::uniform_random(n, 6, &mut rng).unwrap();
        let pred = theory::win_prediction(init::average(&opinions));
        let mut p = FastProcess::new(&g, opinions, FastScheduler::Edge).unwrap();
        let w = p
            .run_to_consensus(u64::MAX, &mut rng)
            .consensus_opinion()
            .unwrap();
        w == pred.lower || w == pred.upper
    });
    let hits = ok.iter().filter(|&&b| b).count();
    // Same finite-size slack as the reference-engine acceptance test.
    assert!(
        hits as f64 / trials as f64 > 0.85,
        "only {hits}/{trials} runs hit ⌊c⌋/⌈c⌉"
    );
}

#[test]
fn fast_floor_probability_tracks_fractional_part() {
    // Fixed c = 2.25: P[2 wins] ≈ 0.75, P[3 wins] ≈ 0.25.
    let n = 80;
    let g = generators::complete(n).unwrap();
    let trials = 300usize;
    let spec = [(1i64, 25), (2, 25), (3, 15), (4, 15)]; // sum 180/80 = 2.25
    let wins: Vec<i64> = div_sim::run_trials(trials, 0xFA_02, |_, seed| {
        let mut rng = FastRng::seed_from_u64(seed);
        let opinions = init::shuffled_blocks(&spec, &mut rng).unwrap();
        let mut p = FastProcess::new(&g, opinions, FastScheduler::Edge).unwrap();
        p.run_to_consensus(u64::MAX, &mut rng)
            .consensus_opinion()
            .unwrap()
    });
    let floor_wins = wins.iter().filter(|&&w| w == 2).count() as u64;
    let (lo, hi) = wilson_interval(floor_wins, trials as u64, Z99);
    assert!(
        lo < 0.83 && hi > 0.63,
        "P[⌊c⌋] 99% CI [{lo:.3}, {hi:.3}] incompatible with ≈0.75"
    );
}

#[test]
fn fast_vertex_and_edge_on_random_regular_graph() {
    // Non-complete graph: this drives the general CSR-vertex and
    // edge-array samplers (the complete-graph shortcut does not apply).
    let n = 100;
    let mut grng = FastRng::seed_from_u64(0xFA_03);
    let g = generators::random_regular(n, 8, &mut grng).unwrap();
    assert!(algo::is_connected(&g));
    let trials = 100;
    for kind in [
        FastScheduler::Vertex,
        FastScheduler::Edge,
        FastScheduler::EdgeAlias,
    ] {
        let ok = div_sim::run_trials(trials, 0xFA_04, |_, seed| {
            let mut rng = FastRng::seed_from_u64(seed);
            let opinions = init::uniform_random(n, 4, &mut rng).unwrap();
            // Regular graph: degree-weighted average == plain average.
            let pred = theory::win_prediction(init::average(&opinions));
            let mut p = FastProcess::new(&g, opinions, kind).unwrap();
            let w = p
                .run_to_consensus(u64::MAX, &mut rng)
                .consensus_opinion()
                .unwrap();
            w == pred.lower || w == pred.upper
        });
        let hits = ok.iter().filter(|&&b| b).count();
        assert!(
            hits as f64 / trials as f64 > 0.85,
            "{}: only {hits}/{trials} runs hit ⌊c⌋/⌈c⌉",
            kind.label()
        );
    }
}

#[test]
fn fast_two_opinion_edge_law_on_irregular_graph() {
    // Lemma 5, edge process: from a two-adjacent state, P[high wins] is
    // exactly N_high/n on *any* graph — the hub's large degree must not
    // matter.  Both edge formulations face the same bar.
    let n = 30;
    let g = generators::wheel(n).unwrap();
    let high_holders = 9;
    let p_expect = theory::two_opinion_win_probability_edge(high_holders, n);
    let trials = 400u64;
    for (kind, master) in [
        (FastScheduler::Edge, 0xFA_05),
        (FastScheduler::EdgeAlias, 0xFA_06),
    ] {
        let wins: Vec<i64> = div_sim::run_trials(trials as usize, master, |_, seed| {
            let mut rng = FastRng::seed_from_u64(seed);
            let mut opinions = vec![2i64; n];
            for o in opinions.iter_mut().take(high_holders) {
                *o = 3;
            }
            let mut p = FastProcess::new(&g, opinions, kind).unwrap();
            p.run_to_consensus(u64::MAX, &mut rng)
                .consensus_opinion()
                .unwrap()
        });
        let high_wins = wins.iter().filter(|&&w| w == 3).count() as u64;
        let (lo, hi) = wilson_interval(high_wins, trials, Z99);
        assert!(
            lo <= p_expect && p_expect <= hi,
            "{}: P[high] 99% CI [{lo:.3}, {hi:.3}] misses exact {p_expect:.3}",
            kind.label()
        );
    }
}

#[test]
fn fast_two_opinion_vertex_law_on_irregular_graph() {
    // Lemma 5, vertex process: P[high wins] = d(A_high)/2m.  Putting the
    // hub in the high camp makes this differ sharply from N_high/n.
    let n = 30;
    let g = generators::wheel(n).unwrap();
    let high_holders = 9;
    let degree_mass: u64 = (0..high_holders).map(|v| g.degree(v) as u64).sum();
    let p_expect = theory::two_opinion_win_probability_vertex(degree_mass, g.total_degree() as u64);
    assert!(
        (p_expect - high_holders as f64 / n as f64).abs() > 0.05,
        "test graph fails to separate the two laws"
    );
    let trials = 400u64;
    let wins: Vec<i64> = div_sim::run_trials(trials as usize, 0xFA_07, |_, seed| {
        let mut rng = FastRng::seed_from_u64(seed);
        let mut opinions = vec![5i64; n];
        for o in opinions.iter_mut().take(high_holders) {
            *o = 6;
        }
        let mut p = FastProcess::new(&g, opinions, FastScheduler::Vertex).unwrap();
        p.run_to_consensus(u64::MAX, &mut rng)
            .consensus_opinion()
            .unwrap()
    });
    let high_wins = wins.iter().filter(|&&w| w == 6).count() as u64;
    let (lo, hi) = wilson_interval(high_wins, trials, Z99);
    assert!(
        lo <= p_expect && p_expect <= hi,
        "P[high] 99% CI [{lo:.3}, {hi:.3}] misses exact {p_expect:.3}"
    );
}

/// Floor-win count over `trials` runs of the given policy from a shuffled
/// two-block start (`c = 2.5`), for the analytic-vs-simulate comparison.
fn floor_wins(g: &Graph, kind: FastScheduler, policy: FinishPolicy, master: u64) -> (u64, u64) {
    let spec = [(1i64, 30), (4, 30)];
    let trials = 400usize;
    let wins: Vec<i64> = div_sim::run_trials(trials, master, |_, seed| {
        let mut rng = FastRng::seed_from_u64(seed);
        let opinions = init::shuffled_blocks(&spec, &mut rng).unwrap();
        let mut p = FastProcess::new(g, opinions, kind).unwrap();
        // Finite-size excursions can settle outside {⌊c⌋, ⌈c⌉}; the
        // policies are compared on the ⌊c⌋-win frequency alone.
        p.run_with_policy(u64::MAX, &mut rng, policy)
            .consensus_opinion()
            .unwrap()
    });
    (
        wins.iter().filter(|&&w| w == 2).count() as u64,
        wins.len() as u64,
    )
}

#[test]
fn analytic_finish_matches_full_simulation_edge() {
    let g = generators::complete(60).unwrap();
    let (sim, n) = floor_wins(&g, FastScheduler::Edge, FinishPolicy::Simulate, 0xFA_08);
    let (ana, _) = floor_wins(
        &g,
        FastScheduler::Edge,
        FinishPolicy::AnalyticTwoAdjacent,
        0xFA_09,
    );
    let (slo, shi) = wilson_interval(sim, n, Z95);
    let (alo, ahi) = wilson_interval(ana, n, Z95);
    assert!(
        slo <= ahi && alo <= shi,
        "Wilson 95% CIs disjoint: simulate [{slo:.3}, {shi:.3}] vs analytic [{alo:.3}, {ahi:.3}]"
    );
}

#[test]
fn analytic_finish_matches_full_simulation_vertex_irregular() {
    // The vertex-process analytic finish draws from d(A_high)/2m; an
    // irregular graph makes that branch genuinely different from N/n.
    let g = generators::wheel(60).unwrap();
    let (sim, n) = floor_wins(&g, FastScheduler::Vertex, FinishPolicy::Simulate, 0xFA_0A);
    let (ana, _) = floor_wins(
        &g,
        FastScheduler::Vertex,
        FinishPolicy::AnalyticTwoAdjacent,
        0xFA_0B,
    );
    let (slo, shi) = wilson_interval(sim, n, Z95);
    let (alo, ahi) = wilson_interval(ana, n, Z95);
    assert!(
        slo <= ahi && alo <= shi,
        "Wilson 95% CIs disjoint: simulate [{slo:.3}, {shi:.3}] vs analytic [{alo:.3}, {ahi:.3}]"
    );
}

/// `regular:60000:8`: its stepping working set (`4n + 8m` ≈ 2.1 MB)
/// outgrows L2, so its pipelined edge-sampler blocks really overlap
/// cache misses.
fn large_graph() -> Graph {
    let mut grng = FastRng::seed_from_u64(0xFA_10);
    generators::random_regular(60_000, 8, &mut grng).unwrap()
}

/// Uneven budget chunks, each at least the lookahead depth (16 steps)
/// and none a multiple of the 60 000-step block.
const CHUNKS: [u64; 5] = [16, 1_001, 65_537, 17, 40_000];

/// Calls `run` on consecutive chunks (cycling through [`CHUNKS`]) until
/// it reports anything but a step limit or `budget` steps are spent;
/// returns the last status.
fn run_chunked(budget: u64, mut run: impl FnMut(u64) -> RunStatus) -> RunStatus {
    let mut left = budget;
    for &chunk in CHUNKS.iter().cycle() {
        let chunk = chunk.min(left);
        let status = run(chunk);
        left -= chunk;
        if left == 0 || !matches!(status, RunStatus::StepLimit { .. }) {
            return status;
        }
    }
    unreachable!("CHUNKS cycles forever")
}

/// The plain per-step oracle: a trivial fault plan steps one pick at a
/// time through the same sampler and RNG stream as fault-free stepping.
fn plain_twin<'g>(g: &'g Graph, opinions: &[i64]) -> (FastProcess<'g>, FaultSession) {
    let session = FaultPlan::none().session(opinions).unwrap();
    let p = FastProcess::new(g, opinions.to_vec(), FastScheduler::Edge).unwrap();
    (p, session)
}

#[test]
fn chunked_pipelined_budget_matches_one_run_and_plain_stepping() {
    let g = large_graph();
    let opinions = init::spread(g.num_vertices(), 6).unwrap();
    let budget = 3 * CHUNKS.iter().sum::<u64>();

    let mut whole = FastProcess::new(&g, opinions.clone(), FastScheduler::Edge).unwrap();
    let mut rw = FastRng::seed_from_u64(0xFA_11);
    assert_eq!(
        whole.run_to_consensus(budget, &mut rw),
        RunStatus::StepLimit { steps: budget }
    );

    let mut chunked = FastProcess::new(&g, opinions.clone(), FastScheduler::Edge).unwrap();
    let mut rc = FastRng::seed_from_u64(0xFA_11);
    let status = run_chunked(budget, |c| chunked.run_to_consensus(c, &mut rc));
    assert_eq!(status, RunStatus::StepLimit { steps: budget });

    let (mut plain, mut session) = plain_twin(&g, &opinions);
    let mut rp = FastRng::seed_from_u64(0xFA_11);
    plain.run_faulty_to_consensus(budget, &mut session, &mut rp);
    assert_eq!(plain.steps(), budget);

    for (name, p) in [("chunked", &chunked), ("plain", &plain)] {
        assert_eq!(p.opinions(), whole.opinions(), "{name}: opinions");
        assert_eq!(p.sum(), whole.sum(), "{name}: sum");
        assert_eq!(
            (p.min_opinion(), p.max_opinion()),
            (whole.min_opinion(), whole.max_opinion()),
            "{name}: range"
        );
    }
    let next = rw.next_u64();
    assert_eq!(rc.next_u64(), next, "chunked: next RNG word");
    assert_eq!(rp.next_u64(), next, "plain: next RNG word");
}

#[test]
fn first_hit_inside_pipelined_block_is_chunking_invariant() {
    // Half the vertices at 1, half at 2, one at 0: τ is the extinction of
    // the lone 0 (a subcritical branching process), so it falls within a
    // few blocks, and the Lemma 5 draw at τ is close to a fair coin — a
    // mis-positioned RNG would flip it about half the time.
    let g = large_graph();
    let n = g.num_vertices();
    let mut opinions: Vec<i64> = (0..n).map(|v| 1 + (v % 2) as i64).collect();
    opinions[0] = 0;
    let budget = 50 * n as u64;
    for seed in 0xFA_20..0xFA_24u64 {
        let (mut plain, mut session) = plain_twin(&g, &opinions);
        let mut rp = FastRng::seed_from_u64(seed);
        let tau = plain.run_faulty_to_two_adjacent(budget, &mut session, &mut rp);
        assert!(plain.is_two_adjacent(), "seed {seed:#x}: τ not reached");
        let tau = tau.steps();
        assert!(
            tau > 16 && tau % n as u64 != 0,
            "seed {seed:#x}: τ = {tau} must fall inside a block"
        );

        // Stop at τ, whole and chunked: same step, same next RNG word
        // as the plain per-step oracle.
        let mut whole = FastProcess::new(&g, opinions.clone(), FastScheduler::Edge).unwrap();
        let mut rw = FastRng::seed_from_u64(seed);
        assert_eq!(whole.run_to_two_adjacent(budget, &mut rw).steps(), tau);
        let mut chunked = FastProcess::new(&g, opinions.clone(), FastScheduler::Edge).unwrap();
        let mut rc = FastRng::seed_from_u64(seed);
        let status = run_chunked(budget, |c| chunked.run_to_two_adjacent(c, &mut rc));
        assert_eq!(status.steps(), tau, "seed {seed:#x}: chunked τ");
        assert_eq!(chunked.opinions(), plain.opinions());
        let next = rp.next_u64();
        assert_eq!(rw.next_u64(), next, "seed {seed:#x}: whole next RNG word");
        assert_eq!(rc.next_u64(), next, "seed {seed:#x}: chunked next RNG word");

        // The analytic winner is drawn right after τ, so it is the same
        // however the budget is chunked.
        let mut whole = FastProcess::new(&g, opinions.clone(), FastScheduler::Edge).unwrap();
        let mut rw = FastRng::seed_from_u64(seed);
        let one = whole.run_with_policy(budget, &mut rw, FinishPolicy::AnalyticTwoAdjacent);
        let mut chunked = FastProcess::new(&g, opinions.clone(), FastScheduler::Edge).unwrap();
        let mut rc = FastRng::seed_from_u64(seed);
        let split = run_chunked(budget, |c| {
            chunked.run_with_policy(c, &mut rc, FinishPolicy::AnalyticTwoAdjacent)
        });
        assert_eq!(one.steps(), tau);
        assert!(one.consensus_opinion().is_some(), "analytic finish decides");
        assert_eq!(split, one, "seed {seed:#x}: analytic winner");
    }
}
