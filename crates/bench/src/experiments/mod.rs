//! Experiment implementations, one submodule per paper artefact group.
//!
//! Every experiment consumes the shared [`ExperimentContext`] and returns
//! an [`Outcome`]: its [`ResultTable`]s, which the `reproduce` binary
//! writes as CSV under `results/` and renders to stdout, and the
//! [`ScenarioReport`]s of the claims it asserts, whose checks are
//! `reproduce`'s exit status. Which experiments exist is decided in one
//! place, [`ALL`]: `reproduce` selects from it by name and the smoke test
//! walks it.

pub mod ablations;
pub mod adversary;
pub mod audit;
pub mod classifier;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod mc;
pub mod pacing;
pub mod planner;
pub mod session;
pub mod staleness;
pub mod stats;
pub mod tables;

use crate::context::ExperimentContext;
use crate::table::ResultTable;
use crate::verdict::{InvariantBlock, ScenarioReport};
use std::sync::Arc;
use toppriv_adversary::NaiveBayes;
use toppriv_core::{BeliefEngine, GhostConfig, GhostGenerator, PrivacyMetrics, PrivacyRequirement};
use tsearch_corpus::BenchmarkQuery;
use tsearch_lda::LdaModel;

/// What one experiment returns: its tables, and the verdicts of the
/// claims it asserts.
pub type Outcome = (Vec<ResultTable>, Vec<ScenarioReport>);

/// An experiment's entry point.
pub type Experiment = fn(&ExperimentContext) -> Outcome;

/// Every experiment, by the name `reproduce` selects it with, in the
/// order a bare `reproduce` runs them.
pub const ALL: &[(&str, Experiment)] = &[
    ("stats", stats::run),
    ("tables", tables::run),
    ("fig2", fig2::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("ablations", ablations::run),
    ("adversary", adversary::run),
    ("classifier", classifier::run),
    ("mc", mc::run),
    ("session", session::run),
    ("pacing", pacing::run),
    ("staleness", staleness::run),
    ("audit", audit::run),
    ("planner", planner::run),
];

/// Standard error of a rate `p` measured over `n` trials.
fn std_err(p: f64, n: usize) -> f64 {
    (p * (1.0 - p) / n.max(1) as f64).sqrt()
}

/// Checks that an attack's `success` rate over `trials` is within three
/// standard errors of its `chance` rate.
pub(crate) fn check_near_chance(
    inv: &mut InvariantBlock,
    name: &str,
    success: f64,
    chance: f64,
    trials: usize,
) {
    let bound = chance + 3.0 * std_err(chance, trials);
    inv.check(
        name,
        format!(
            "success {success:.3} vs chance {chance:.3} + 3 SE = {bound:.3} over {trials} trials"
        ),
        success <= bound,
    );
}

/// Checks that rate `a` (over `na` trials) is below rate `b` (over `nb`)
/// by more than three standard errors of their difference.
pub(crate) fn check_clearly_below(
    inv: &mut InvariantBlock,
    name: &str,
    (a, na): (f64, usize),
    (b, nb): (f64, usize),
) {
    let margin = 3.0 * std_err(a, na).hypot(std_err(b, nb));
    inv.check(
        name,
        format!("{a:.3} ({na} trials) vs {b:.3} ({nb} trials), 3 SE = {margin:.3}"),
        a + margin < b,
    );
}

/// The supervised adversary the enterprise can always build: naive Bayes
/// trained on its own documents, each labelled with its dominant
/// ground-truth topic.
pub(crate) fn topic_classifier(ctx: &ExperimentContext) -> NaiveBayes {
    let labeled: Vec<(&[u32], usize)> = ctx
        .corpus
        .docs
        .iter()
        .map(|d| {
            let label = d
                .mixture
                .iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite weight"))
                .map(|&(t, _)| t)
                .expect("non-empty mixture");
            (d.tokens.as_slice(), label)
        })
        .collect();
    NaiveBayes::train(
        &labeled,
        ctx.corpus.num_topics(),
        ctx.corpus.vocab.len(),
        1.0,
    )
}

/// Mean aggregation of per-query privacy metrics at one sweep point.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepCell {
    /// Mean exposure `max_{t∈U} B(t|C)`.
    pub exposure: f64,
    /// Mean mask level `max_{t∈T\U} B(t|C)`.
    pub mask: f64,
    /// Mean cycle length υ.
    pub cycle_len: f64,
    /// Mean ghost-generation seconds.
    pub gen_secs: f64,
    /// Mean `|U|`.
    pub num_relevant: f64,
    /// Mean best rank of any intention topic.
    pub best_rank: f64,
    /// Fraction of queries whose requirement was satisfied.
    pub satisfied: f64,
}

impl SweepCell {
    /// Averages a batch of metrics (`satisfied` supplied separately).
    pub fn aggregate(metrics: &[(PrivacyMetrics, bool)]) -> Self {
        let n = metrics.len().max(1) as f64;
        let mut cell = SweepCell::default();
        let mut ranked = 0usize;
        for (m, sat) in metrics {
            cell.exposure += m.exposure;
            cell.mask += m.mask_level;
            cell.cycle_len += m.cycle_len as f64;
            cell.gen_secs += m.generation_secs;
            cell.num_relevant += m.num_relevant as f64;
            if m.best_intention_rank > 0 {
                cell.best_rank += m.best_intention_rank as f64;
                ranked += 1;
            }
            cell.satisfied += if *sat { 1.0 } else { 0.0 };
        }
        cell.exposure /= n;
        cell.mask /= n;
        cell.cycle_len /= n;
        cell.gen_secs /= n;
        cell.num_relevant /= n;
        cell.best_rank /= ranked.max(1) as f64;
        cell.satisfied /= n;
        cell
    }
}

/// Runs TopPriv over `queries` at one `(ε1, ε2)` point under `model`.
pub fn protect_queries(
    model: &Arc<LdaModel>,
    queries: &[BenchmarkQuery],
    requirement: PrivacyRequirement,
) -> SweepCell {
    let generator = GhostGenerator::new(
        BeliefEngine::new(model.clone()),
        requirement,
        GhostConfig::default(),
    );
    let metrics: Vec<(PrivacyMetrics, bool)> = queries
        .iter()
        .map(|q| {
            let r = generator.generate(&q.tokens);
            (r.metrics, r.satisfied)
        })
        .collect();
    SweepCell::aggregate(&metrics)
}

/// Runs a full `(model × ε-grid)` sweep in parallel across models.
/// `make_requirement` maps a grid value to the `(ε1, ε2)` point.
pub fn eps_sweep<F>(
    ctx: &ExperimentContext,
    make_requirement: F,
) -> Vec<(usize, Vec<(f64, SweepCell)>)>
where
    F: Fn(f64) -> PrivacyRequirement + Sync,
{
    let queries = ctx.sweep_queries();
    std::thread::scope(|s| {
        let handles: Vec<_> = ctx
            .models
            .iter()
            .map(|(k, model)| {
                let make_requirement = &make_requirement;
                s.spawn(move || {
                    let cells: Vec<(f64, SweepCell)> = ctx
                        .scale
                        .eps_grid
                        .iter()
                        .map(|&eps| (eps, protect_queries(model, queries, make_requirement(eps))))
                        .collect();
                    (*k, cells)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    })
}

/// Builds one figure-panel table from sweep results: rows = ε values,
/// columns = models, cell = `extract(cell)` formatted by `fmt`.
pub fn sweep_table(
    name: &str,
    caption: &str,
    eps_label: &str,
    sweep: &[(usize, Vec<(f64, SweepCell)>)],
    extract: impl Fn(&SweepCell) -> f64,
    fmt: impl Fn(f64) -> String,
) -> ResultTable {
    let mut header = vec![eps_label.to_string()];
    header.extend(
        sweep
            .iter()
            .map(|(k, _)| crate::scale::Scale::model_label(*k)),
    );
    let mut table = ResultTable::new(name, caption, header);
    if let Some((_, first)) = sweep.first() {
        for (i, &(eps, _)) in first.iter().enumerate() {
            let mut row = vec![crate::table::pct(eps)];
            for (_, cells) in sweep {
                row.push(fmt(extract(&cells[i].1)));
            }
            table.push_row(row);
        }
    }
    table
}

/// Checks the shape Figures 2 and 3 share, on every model: at every grid
/// point the mean exposure is within `eps2_of(eps)`, and υ does not grow
/// as the grid loosens.
pub(crate) fn check_sweep(
    inv: &mut InvariantBlock,
    sweep: &[(usize, Vec<(f64, SweepCell)>)],
    eps2_of: impl Fn(f64) -> f64,
) {
    let label = crate::scale::Scale::model_label;
    let pct = crate::table::pct;
    let over: Vec<String> = sweep
        .iter()
        .flat_map(|(k, cells)| {
            cells
                .iter()
                .filter(|(eps, c)| c.exposure > eps2_of(*eps))
                .map(move |(eps, c)| {
                    format!(
                        "{} eps {}%: exposure {}%",
                        label(*k),
                        pct(*eps),
                        pct(c.exposure)
                    )
                })
        })
        .collect();
    inv.check(
        "mean_exposure_within_eps2",
        if over.is_empty() {
            format!(
                "{} model(s) x {} eps point(s)",
                sweep.len(),
                sweep[0].1.len()
            )
        } else {
            over.join("; ")
        },
        over.is_empty(),
    );
    let trend: Vec<String> = sweep
        .iter()
        .map(|(k, cells)| {
            let lens: Vec<String> = cells
                .iter()
                .map(|(_, c)| format!("{:.2}", c.cycle_len))
                .collect();
            format!("{}: {}", label(*k), lens.join(" -> "))
        })
        .collect();
    inv.check(
        "cycle_len_non_increasing_as_eps2_loosens",
        trend.join("; "),
        sweep.iter().all(|(_, cells)| {
            cells
                .windows(2)
                .all(|w| w[1].1.cycle_len <= w[0].1.cycle_len)
        }),
    );
}

/// Writes and prints a batch of tables.
pub fn emit(tables: &[ResultTable], out_dir: &std::path::Path, quiet: bool) {
    for t in tables {
        match t.write_csv(out_dir) {
            Ok(path) => {
                if !quiet {
                    println!("{}", t.render());
                    println!("   -> {}", path.display());
                }
            }
            Err(e) => eprintln!("failed to write {}: {e}", t.name),
        }
    }
}
