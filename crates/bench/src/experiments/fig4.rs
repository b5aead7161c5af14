//! Figure 4: topical exposure of the PDX query-embellishment baseline at
//! expansion factors 2×–16×, as a function of the relevance threshold used
//! to define the user intention.
//!
//! For each (model, factor, query): `qe` is the PDX-embellished query and
//! the exposure is `max_{t∈U(ε1)} B(t|qe)` where `U(ε1)` comes from the
//! *unembellished* query's boosts.
//!
//! Asserts, on every model and at every ε1: PDX leaves the intention
//! exposed above the paper's ε2 at every factor, and the exposure falls
//! as the factor grows.

use super::Outcome;
use crate::context::ExperimentContext;
use crate::scale::Scale;
use crate::table::{pct, ResultTable};
use crate::verdict::{InvariantBlock, ScenarioReport};
use toppriv_baselines::{PdxConfig, PdxEmbellisher, Thesaurus, ThesaurusConfig};
use toppriv_core::{BeliefEngine, PrivacyRequirement};

/// Builds the thesaurus and per-term IDFs the PDX baseline needs.
pub fn build_pdx_inputs(ctx: &ExperimentContext) -> (Thesaurus, Vec<f64>) {
    let docs = ctx.corpus.token_docs();
    let thesaurus = Thesaurus::build(&docs, ctx.corpus.vocab.len(), ThesaurusConfig::default());
    let num_docs = ctx.corpus.num_docs();
    let idfs: Vec<f64> = (0..ctx.corpus.vocab.len() as u32)
        .map(|t| ctx.corpus.vocab.idf(t, num_docs))
        .collect();
    (thesaurus, idfs)
}

/// Per-query boost pair: `(B(t|qu), B(t|qe))`.
type BoostPair = (Vec<f64>, Vec<f64>);
/// Per-model results: `(K, [(factor, per-query boost pairs)])`.
type ModelFactorBoosts = (usize, Vec<(usize, Vec<BoostPair>)>);

/// Runs the Figure 4 sweep: one table per expansion factor.
pub fn run(ctx: &ExperimentContext) -> Outcome {
    let (thesaurus, idfs) = build_pdx_inputs(ctx);
    let queries = ctx.sweep_queries();

    // Per (model, factor): for each query, the solo boosts B(t|qu) and the
    // embellished boosts B(t|qe). Computed in parallel across models.
    let per_model: Vec<ModelFactorBoosts> = std::thread::scope(|s| {
        let handles: Vec<_> = ctx
            .models
            .iter()
            .map(|(k, model)| {
                let thesaurus = &thesaurus;
                let idfs = &idfs;
                s.spawn(move || {
                    let belief = BeliefEngine::new(model.clone());
                    let solo: Vec<Vec<f64>> =
                        queries.iter().map(|q| belief.boost(&q.tokens)).collect();
                    let mut by_factor = Vec::new();
                    for &factor in &ctx.scale.expansion_factors {
                        let pdx = PdxEmbellisher::new(
                            thesaurus,
                            idfs.clone(),
                            PdxConfig {
                                expansion_factor: factor,
                                ..PdxConfig::default()
                            },
                        );
                        let pairs: Vec<BoostPair> = queries
                            .iter()
                            .zip(&solo)
                            .map(|(q, solo_boosts)| {
                                let qe = pdx.embellish(&q.tokens);
                                (solo_boosts.clone(), belief.boost(&qe.tokens))
                            })
                            .collect();
                        by_factor.push((factor, pairs));
                    }
                    (*k, by_factor)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fig4 worker panicked"))
            .collect()
    });

    // Mean exposure per (factor, ε1, model): over the queries with a
    // non-empty intention at that ε1.
    let mean_exposure = |fi: usize, eps: f64, by_factor: &[(usize, Vec<BoostPair>)]| {
        let mut total = 0.0;
        let mut counted = 0usize;
        for (solo, embellished) in &by_factor[fi].1 {
            let intention: Vec<usize> = solo
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b > eps)
                .map(|(t, _)| t)
                .collect();
            if intention.is_empty() {
                continue;
            }
            total += toppriv_core::exposure(embellished, &intention);
            counted += 1;
        }
        if counted == 0 {
            0.0
        } else {
            total / counted as f64
        }
    };
    let factors = &ctx.scale.expansion_factors;
    let grid: Vec<Vec<Vec<f64>>> = (0..factors.len())
        .map(|fi| {
            ctx.scale
                .eps_grid
                .iter()
                .map(|&eps| {
                    per_model
                        .iter()
                        .map(|(_, by_factor)| mean_exposure(fi, eps, by_factor))
                        .collect()
                })
                .collect()
        })
        .collect();

    // Render one table per factor: rows = ε1 grid, columns = models.
    let mut tables = Vec::new();
    for (&factor, rows) in factors.iter().zip(&grid) {
        let mut header = vec!["eps_pct".to_string()];
        header.extend(per_model.iter().map(|(k, _)| Scale::model_label(*k)));
        let mut table = ResultTable::new(
            format!("fig4_{factor}x_pdx_exposure"),
            format!("PDX exposure max B(t|qe) over t in U (%), {factor}x expansion"),
            header,
        );
        for (&eps, row) in ctx.scale.eps_grid.iter().zip(rows) {
            let mut cells = vec![pct(eps)];
            cells.extend(row.iter().map(|&e| pct(e)));
            table.push_row(cells);
        }
        tables.push(table);
    }

    let eps2 = PrivacyRequirement::paper_default().eps2;
    let lowest = grid
        .iter()
        .flatten()
        .flatten()
        .fold(f64::INFINITY, |a, &b| a.min(b));
    let mut inv = InvariantBlock::default();
    inv.check(
        "pdx_exposure_above_eps2",
        format!(
            "lowest mean exposure {}% vs eps2 {}%",
            pct(lowest),
            pct(eps2)
        ),
        lowest > eps2,
    );
    let last = grid.len() - 1;
    inv.check(
        "pdx_exposure_falls_with_factor",
        format!(
            "{}x -> {}x at eps {}%: {}",
            factors[0],
            factors[last],
            pct(ctx.scale.eps_grid[0]),
            per_model
                .iter()
                .enumerate()
                .map(|(m, (k, _))| format!(
                    "{} {} -> {}",
                    Scale::model_label(*k),
                    pct(grid[0][0][m]),
                    pct(grid[last][0][m])
                ))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        grid.windows(2).all(|w| {
            w[0].iter()
                .flatten()
                .zip(w[1].iter().flatten())
                .all(|(fewer, more)| more < fewer)
        }),
    );
    (tables, vec![ScenarioReport::close("fig4", inv)])
}
