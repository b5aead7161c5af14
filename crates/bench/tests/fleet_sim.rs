//! The fleet simulation, seeded: one `u64` seed draws a run of steps —
//! opens and closes, wire searches, plain and planner plans, resilient
//! drains by 1, 2 or 4 workers under injected faults, rollbacks, spill
//! and restore, model swaps, one corpus evolution, plain and planner
//! flash crowds, closes under load, hostile lines and one watchdog stall
//! — each checked against the reference model (see `sim/mod.rs`). A
//! failing seed prints its step log and fails at the same step when its
//! test runs again.

mod sim;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim::{stack, Sim, Step, Swap};
use toppriv_service::FaultKind;

/// Tenants a run draws from.
const TENANTS: usize = 6;

/// The steps seed `seed` draws: every tenant opens, then `len` random
/// steps with the watchdog stall a third of the way in and the corpus
/// evolution at two thirds.
fn steps(seed: u64, len: usize) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut steps: Vec<Step> = (0..TENANTS).map(Step::Open).collect();
    for i in 0..len {
        let (t, q) = (rng.gen_range(0..TENANTS), rng.gen_range(0..1024));
        if i == len / 3 {
            // The stall needs two queued submissions.
            steps.extend([Step::Open(t), Step::Plan(t, q, false)]);
            steps.push(Step::Plan(t, q + 1, true));
        }
        steps.push(match (i, rng.gen_range(0..100)) {
            _ if i == len / 3 => Step::Stall,
            _ if i == 2 * len / 3 => Step::Evolve,
            (_, 0..=5) => Step::Open(t),
            (_, 6..=8) => Step::Close(t),
            (_, 9..=28) => Step::Search(t, q),
            (_, 29..=30) => Step::Hostile(t, q),
            (_, 31..=50) => Step::Plan(t, q, false),
            (_, 51..=62) => Step::Plan(t, q, true),
            (_, 63..=72) => Step::Drain([1, 2, 4][q % 3]),
            (_, 73..=80) => Step::Rollback(t, q),
            (_, 81..=84) => Step::SpillRestore(t),
            (_, 85..=92) => Step::Swap([Swap::Reload, Swap::SameK, Swap::NewK][q % 3]),
            (_, 93..=96) => Step::Crowd(q, q % 2 == 1),
            _ => Step::CloseUnderLoad(t, q),
        });
    }
    steps.push(Step::Drain(1));
    steps
}

fn run(seed: u64, len: usize) -> Sim {
    let mut sim = Sim::new(seed, stack().pools[0].clone(), 0.03);
    for step in steps(seed, len) {
        sim.step(step);
    }
    sim
}

#[test]
fn one_seed_runs_every_step_kind_against_the_model() {
    let sim = run(0x51D_0001, 160);
    let kinds = "open open_duplicate close close_unknown search search_unknown plan plan_planner \
                 drain1 drain2 drain4 rollback rollback_refused spill_restore swap_reload \
                 swap_same_k swap_new_k evolve crowd crowd_planner close_under_load stall hostile";
    let ran = |kind: &&str| sim.ran.contains(kind);
    let missing: Vec<_> = kinds.split_whitespace().filter(|k| !ran(k)).collect();
    assert!(missing.is_empty(), "step kinds that never ran: {missing:?}");
    let faults = sim.manager.fault_plane().expect("fault plane");
    assert!(faults.fired(FaultKind::WorkerPanic) > 0, "no fault fired");
}

/// The sweep CI's `invariants` job runs in release.
#[test]
#[ignore = "seed sweep: cargo test --release -p toppriv-bench --test fleet_sim -- --ignored"]
fn seed_sweep() {
    for seed in 1..=24 {
        run(seed, 240);
    }
}
