//! Experiment `pacing` (extension beyond the paper): the timing side
//! channel of cycle submission.
//!
//! A simulated user issues protected queries with exponential think-time;
//! the client schedules each cycle with one of three pacing strategies
//! (`toppriv-core::pacing`); the adversary sees only the engine's timed
//! log and mounts the timing attack of `toppriv-adversary::timing`,
//! sweeping its segmentation threshold and picking its best heuristic.
//!
//! Expected shape: the naive client (genuine query first) is fully
//! identified; the paper's shuffled burst reduces identification to
//! chance ≈ 1/υ but still segments perfectly; Poisson spreading destroys
//! segmentation too, at the price of genuine-result latency.
//!
//! Asserts the first two: naive-first identification is at least 0.9, and
//! every heuristic against the shuffled burst stays within chance + 3
//! standard errors.

use super::{check_near_chance, Outcome};
use crate::context::ExperimentContext;
use crate::table::{f3, ResultTable};
use crate::verdict::{InvariantBlock, ScenarioReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use toppriv_adversary::{run_timing_attack, TimingHeuristic};
use toppriv_core::{
    merge_schedules, BeliefEngine, GhostConfig, GhostGenerator, PacingConfig, PacingScheduler,
    PacingStrategy, PrivacyRequirement, ScheduledQuery,
};

/// Mean user think-time between protected queries (seconds, simulated).
pub const THINK_SECS: f64 = 90.0;
/// Segmentation thresholds the adversary sweeps (seconds).
pub const GAP_THRESHOLDS: &[f64] = &[0.2, 1.0, 5.0, 30.0];

/// The pacing strategies compared.
fn strategies() -> Vec<(&'static str, PacingStrategy)> {
    vec![
        ("naive_immediate", PacingStrategy::NaiveImmediate),
        ("shuffled_burst", PacingStrategy::ShuffledBurst),
        (
            "poisson_spread",
            PacingStrategy::PoissonSpread {
                window_secs: 60.0,
                max_genuine_delay_secs: 5.0,
            },
        ),
    ]
}

/// Runs the timing experiment on the default model.
pub fn run(ctx: &ExperimentContext) -> Outcome {
    let model = ctx.default_model();
    let generator = GhostGenerator::new(
        BeliefEngine::new(model.clone()),
        PrivacyRequirement::paper_default(),
        GhostConfig::default(),
    );
    let queries = &ctx.queries[..ctx.scale.adversary_queries.min(ctx.queries.len())];

    // Protect every query once; the schedules differ per strategy but the
    // cycles are shared (the content channel is held fixed).
    let cycles: Vec<_> = queries
        .iter()
        .map(|q| generator.generate(&q.tokens))
        .collect();

    // Simulated arrival clock (same draw for every strategy).
    let mut rng = StdRng::seed_from_u64(0xc10c_4a77);
    let mut arrivals = Vec::with_capacity(cycles.len());
    let mut t = 0.0f64;
    for _ in &cycles {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -THINK_SECS * u.ln();
        arrivals.push(t);
    }

    let mut table = ResultTable::new(
        "ext3_pacing_timing_attack",
        "Timing side channel: best-case timing adversary vs pacing strategy \
         (default model, eps=(5%,1%), exponential think-time)",
        vec![
            "strategy".into(),
            "heuristic".into(),
            "ident_rate".into(),
            "chance_rate".into(),
            "advantage".into(),
            "pair_precision".into(),
            "pair_recall".into(),
            "best_gap_secs".into(),
            "mean_genuine_delay_secs".into(),
        ],
    );

    let mut inv = InvariantBlock::default();
    for (name, strategy) in strategies() {
        let mut scheduler = PacingScheduler::new(PacingConfig {
            strategy,
            ..Default::default()
        });
        let mut log: Vec<ScheduledQuery> = Vec::new();
        let mut delay_sum = 0.0;
        for (cycle, &start) in cycles.iter().zip(&arrivals) {
            let sched = scheduler.schedule(cycle, start);
            delay_sum += PacingScheduler::genuine_delay(&sched, start);
            log.extend(sched);
        }
        let log = merge_schedules(log);
        let mean_delay = delay_sum / cycles.len().max(1) as f64;

        for heuristic in [
            TimingHeuristic::First,
            TimingHeuristic::Last,
            TimingHeuristic::MaxGapBefore,
        ] {
            // Best-case adversary: the threshold that maximizes advantage.
            let best = GAP_THRESHOLDS
                .iter()
                .map(|&g| (g, run_timing_attack(&log, g, heuristic)))
                .max_by(|a, b| {
                    a.1.advantage()
                        .partial_cmp(&b.1.advantage())
                        .expect("finite advantage")
                })
                .expect("non-empty threshold grid");
            let (gap, report) = best;
            match (name, heuristic) {
                ("naive_immediate", TimingHeuristic::First) => inv.check(
                    "naive_first_identified",
                    format!("identification {:.3}", report.identification_rate),
                    report.identification_rate >= 0.9,
                ),
                ("shuffled_burst", _) => check_near_chance(
                    &mut inv,
                    &format!("shuffled_burst_{heuristic:?}_near_chance"),
                    report.identification_rate,
                    report.chance_rate,
                    report.num_cycles,
                ),
                _ => {}
            }
            table.push_row(vec![
                name.into(),
                format!("{heuristic:?}"),
                f3(report.identification_rate),
                f3(report.chance_rate),
                f3(report.advantage()),
                f3(report.pair_precision),
                f3(report.pair_recall),
                f3(gap),
                f3(mean_delay),
            ]);
        }
    }
    (vec![table], vec![ScenarioReport::close("pacing", inv)])
}
