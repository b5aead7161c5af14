//! Experiment implementations, one submodule per paper artefact group.
//!
//! Every experiment consumes the shared [`ExperimentContext`] and returns
//! [`ResultTable`]s; the `reproduce` binary writes them as CSV under
//! `results/` and renders them to stdout. Which experiments exist is
//! decided in one place, [`ALL`]: `reproduce` selects from it by name and
//! the smoke test walks it.

pub mod ablations;
pub mod adversary;
pub mod appendix;
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
pub mod quality;
pub mod reduced;
pub mod scenarios;
pub mod session;
pub mod staleness;
pub mod stats;
pub mod tables;

use crate::context::ExperimentContext;
use crate::table::ResultTable;
use crate::verdict::ScenarioReport;
use std::sync::Arc;
use toppriv_core::{BeliefEngine, GhostConfig, GhostGenerator, PrivacyMetrics, PrivacyRequirement};
use tsearch_corpus::BenchmarkQuery;
use tsearch_lda::LdaModel;

/// How one experiment runs.
pub enum Run {
    /// Tables only.
    Tables(fn(&ExperimentContext) -> Vec<ResultTable>),
    /// Tables plus invariant reports: `reproduce` exits non-zero when a
    /// check in one of them failed, and CI gates on that.
    Gate(fn(&ExperimentContext) -> (Vec<ResultTable>, Vec<ScenarioReport>)),
}

/// Every experiment, by the name `reproduce` selects it with, in the
/// order a bare `reproduce` runs them.
pub const ALL: &[(&str, Run)] = &[
    ("stats", Run::Tables(stats::run)),
    ("tables", Run::Tables(tables::run)),
    ("fig2", Run::Tables(fig2::run)),
    ("fig3", Run::Tables(fig3::run)),
    ("fig4", Run::Tables(fig4::run)),
    ("fig5", Run::Tables(fig5::run)),
    ("fig6", Run::Tables(fig6::run)),
    ("ablations", Run::Tables(ablations::run)),
    ("adversary", Run::Tables(adversary::run)),
    ("classifier", Run::Tables(classifier::run)),
    ("mc", Run::Tables(mc::run)),
    ("session", Run::Tables(session::run)),
    ("reduced", Run::Tables(reduced::run)),
    ("pacing", Run::Tables(pacing::run)),
    ("quality", Run::Tables(quality::run)),
    ("staleness", Run::Tables(staleness::run)),
    ("scenarios", Run::Gate(scenarios::run)),
    ("audit", Run::Gate(audit::run)),
    ("planner", Run::Gate(planner::run)),
    ("appendix", Run::Tables(appendix::run)),
];

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
