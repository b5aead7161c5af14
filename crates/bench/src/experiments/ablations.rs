//! Ablation studies:
//!
//! - `abl1`: the Step 3(c) effectiveness check — what happens if every
//!   candidate ghost is kept regardless of whether it lowers exposure.
//! - `abl2`: semantic coherence — TopPriv's topic-coherent ghosts versus
//!   TrackMeNot-style random ghosts, measuring both the exposure they
//!   achieve and how easily a coherence attack singles out the genuine
//!   query.
//! - `abl3`: ghost term selection — the paper's `Pr(w|tm)`-biased
//!   sampling versus the specificity-matched extension, measuring the
//!   privacy achieved, the server cost (postings touched per ghost
//!   term), and the residual classifier tell.

use super::SweepCell;
use crate::context::ExperimentContext;
use crate::table::{f3, pct, ResultTable};
use toppriv_adversary::{CoherenceAttack, NaiveBayes};
use toppriv_baselines::{TrackMeNot, TrackMeNotConfig};
use toppriv_core::{
    semantic_coherence, BeliefEngine, GhostConfig, GhostGenerator, PrivacyMetrics,
    PrivacyRequirement, TermSelection,
};

/// Runs all three ablations on the default model.
pub fn run(ctx: &ExperimentContext) -> Vec<ResultTable> {
    vec![
        effectiveness_check_ablation(ctx),
        coherence_ablation(ctx),
        term_selection_ablation(ctx),
    ]
}

/// `abl3`: Biased (paper) vs SpecificityMatched ghost terms.
fn term_selection_ablation(ctx: &ExperimentContext) -> ResultTable {
    let model = ctx.default_model();
    let requirement = PrivacyRequirement::paper_default();
    let queries = ctx.sweep_queries();
    // The supervised adversary of experiment `classifier`.
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
    let nb = NaiveBayes::train(
        &labeled,
        ctx.corpus.num_topics(),
        ctx.corpus.vocab.len(),
        1.0,
    );

    let mut table = ResultTable::new(
        "abl3_term_selection",
        "Ghost term selection: paper's Pr(w|tm) bias vs specificity \
         matching (default model, eps=(5%,1%))",
        vec![
            "selection".into(),
            "exposure_pct".into(),
            "satisfied".into(),
            "cycle_len".into(),
            "ghost_postings_per_term".into(),
            "genuine_postings_per_term".into(),
            "nb_genuine_ident".into(),
            "nb_chance".into(),
        ],
    );
    for (name, selection) in [
        ("biased_paper", TermSelection::Biased),
        ("specificity_matched", TermSelection::SpecificityMatched),
    ] {
        let generator = GhostGenerator::new(
            BeliefEngine::new(model.clone()),
            requirement,
            GhostConfig {
                term_selection: selection,
                ..GhostConfig::default()
            },
        );
        let mut exposure = 0.0;
        let mut scored = 0usize;
        let mut satisfied = 0usize;
        let mut cycle_len = 0usize;
        let mut ghost_postings = 0u64;
        let mut ghost_terms = 0u64;
        let mut genuine_postings = 0u64;
        let mut genuine_terms = 0u64;
        let mut nb_hits = 0usize;
        let mut nb_chance = 0.0f64;
        let mut contested = 0usize;
        for q in queries {
            let r = generator.generate(&q.tokens);
            cycle_len += r.cycle_len();
            if !r.intention.is_empty() {
                exposure += r.metrics.exposure;
                scored += 1;
                if r.satisfied {
                    satisfied += 1;
                }
            }
            for &w in &q.tokens {
                genuine_postings += ctx.engine.index().doc_freq(w) as u64;
                genuine_terms += 1;
            }
            for (i, cq) in r.cycle.iter().enumerate() {
                if i != r.genuine_index {
                    for &w in &cq.tokens {
                        ghost_postings += ctx.engine.index().doc_freq(w) as u64;
                        ghost_terms += 1;
                    }
                }
            }
            if r.cycle_len() > 1 {
                contested += 1;
                nb_chance += 1.0 / r.cycle_len() as f64;
                let best = r
                    .cycle
                    .iter()
                    .enumerate()
                    .map(|(i, cq)| (i, nb.classify(&cq.tokens).1))
                    .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                    .map(|(i, _)| i)
                    .expect("non-empty cycle");
                if best == r.genuine_index {
                    nb_hits += 1;
                }
            }
        }
        table.push_row(vec![
            name.into(),
            pct(exposure / scored.max(1) as f64),
            f3(satisfied as f64 / scored.max(1) as f64),
            f3(cycle_len as f64 / queries.len().max(1) as f64),
            f3(ghost_postings as f64 / ghost_terms.max(1) as f64),
            f3(genuine_postings as f64 / genuine_terms.max(1) as f64),
            f3(nb_hits as f64 / contested.max(1) as f64),
            f3(nb_chance / contested.max(1) as f64),
        ]);
    }
    table
}

/// `abl1`: with vs without the Step 3(c) effectiveness check, at the
/// paper-default and a tighter ε2 (where rejections actually occur).
fn effectiveness_check_ablation(ctx: &ExperimentContext) -> ResultTable {
    let model = ctx.default_model();
    let queries = ctx.sweep_queries();

    let run = |eps2: f64, with_check: bool| -> (SweepCell, f64) {
        let requirement = PrivacyRequirement::new(0.05, eps2).expect("valid");
        let mut generator = GhostGenerator::new(
            BeliefEngine::new(model.clone()),
            requirement,
            GhostConfig::default(),
        );
        if !with_check {
            generator = generator.without_effectiveness_check();
        }
        let mut rejected = 0usize;
        let metrics: Vec<(PrivacyMetrics, bool)> = queries
            .iter()
            .map(|q| {
                let r = generator.generate(&q.tokens);
                rejected += r.ineffective_topics.len();
                (r.metrics, r.satisfied)
            })
            .collect();
        (
            SweepCell::aggregate(&metrics),
            rejected as f64 / queries.len().max(1) as f64,
        )
    };

    let mut table = ResultTable::new(
        "abl1_effectiveness_check",
        "Step 3(c) ablation on the default model (eps1=5%)",
        vec![
            "variant".into(),
            "eps2_pct".into(),
            "exposure_pct".into(),
            "mask_pct".into(),
            "cycle_len".into(),
            "rejected_ghosts".into(),
            "gen_secs".into(),
            "satisfied".into(),
        ],
    );
    for eps2 in [0.01, 0.005] {
        for with_check in [true, false] {
            let (cell, rejected) = run(eps2, with_check);
            table.push_row(vec![
                if with_check {
                    "with_check"
                } else {
                    "without_check"
                }
                .into(),
                pct(eps2),
                pct(cell.exposure),
                pct(cell.mask),
                f3(cell.cycle_len),
                f3(rejected),
                format!("{:.4}", cell.gen_secs),
                f3(cell.satisfied),
            ]);
        }
    }
    table
}

/// `abl2`: TopPriv coherent ghosts vs TrackMeNot random ghosts.
fn coherence_ablation(ctx: &ExperimentContext) -> ResultTable {
    let model = ctx.default_model();
    let requirement = PrivacyRequirement::paper_default();
    let queries = ctx.sweep_queries();
    let belief = BeliefEngine::new(model.clone());
    let generator = GhostGenerator::new(
        BeliefEngine::new(model.clone()),
        requirement,
        GhostConfig::default(),
    );
    let attack = CoherenceAttack::new(model.clone());

    // TopPriv arm.
    let mut tp_exposure = 0.0;
    let mut tp_ghost_coherence = 0.0;
    let mut tp_ghost_count = 0usize;
    let mut tp_attack_hits = 0usize;
    let mut tp_cycles = 0usize;
    let mut mean_cycle_len = 0.0;
    let mut scored = 0usize;
    for q in queries {
        let result = generator.generate(&q.tokens);
        mean_cycle_len += result.cycle_len() as f64;
        if !result.intention.is_empty() {
            tp_exposure += result.metrics.exposure;
            scored += 1;
        }
        for cq in &result.cycle {
            if !cq.is_genuine {
                tp_ghost_coherence += semantic_coherence(model, &cq.tokens);
                tp_ghost_count += 1;
            }
        }
        if result.cycle_len() > 1 {
            tp_cycles += 1;
            if attack.guess_genuine(&result.cycle_tokens()) == result.genuine_index {
                tp_attack_hits += 1;
            }
        }
    }
    mean_cycle_len /= queries.len().max(1) as f64;

    // TrackMeNot arm, matched in ghost count to TopPriv's mean cycle.
    let num_ghosts = (mean_cycle_len.round() as usize).saturating_sub(1).max(1);
    let tmn = TrackMeNot::new(
        ctx.corpus.vocab.len(),
        TrackMeNotConfig {
            num_ghosts,
            ..TrackMeNotConfig::default()
        },
    );
    let mut tmn_exposure = 0.0;
    let mut tmn_scored = 0usize;
    let mut tmn_ghost_coherence = 0.0;
    let mut tmn_ghost_count = 0usize;
    let mut tmn_attack_hits = 0usize;
    let mut tmn_cycles = 0usize;
    for q in queries {
        let (cycle, genuine_index) = tmn.cycle(&q.tokens);
        let refs: Vec<&[u32]> = cycle.iter().map(|c| c.as_slice()).collect();
        let posteriors: Vec<Vec<f64>> = refs.iter().map(|r| belief.posterior(r)).collect();
        let boosts = belief.cycle_boost(&posteriors);
        let solo = belief.boost(&q.tokens);
        let intention = requirement.user_intention(&solo);
        if !intention.is_empty() {
            tmn_exposure += toppriv_core::exposure(&boosts, &intention);
            tmn_scored += 1;
        }
        for (i, g) in cycle.iter().enumerate() {
            if i != genuine_index {
                tmn_ghost_coherence += semantic_coherence(model, g);
                tmn_ghost_count += 1;
            }
        }
        tmn_cycles += 1;
        if attack.guess_genuine(&refs) == genuine_index {
            tmn_attack_hits += 1;
        }
    }

    let mut table = ResultTable::new(
        "abl2_coherence",
        "Coherent (TopPriv) vs random (TrackMeNot) ghosts on the default model",
        vec![
            "scheme".into(),
            "exposure_pct".into(),
            "ghost_coherence".into(),
            "coherence_attack_acc".into(),
            "chance_acc".into(),
        ],
    );
    table.push_row(vec![
        "TopPriv".into(),
        pct(tp_exposure / scored.max(1) as f64),
        format!("{:.6}", tp_ghost_coherence / tp_ghost_count.max(1) as f64),
        f3(tp_attack_hits as f64 / tp_cycles.max(1) as f64),
        f3(1.0 / mean_cycle_len.max(1.0)),
    ]);
    table.push_row(vec![
        "TrackMeNot".into(),
        pct(tmn_exposure / tmn_scored.max(1) as f64),
        format!("{:.6}", tmn_ghost_coherence / tmn_ghost_count.max(1) as f64),
        f3(tmn_attack_hits as f64 / tmn_cycles.max(1) as f64),
        f3(1.0 / (num_ghosts + 1) as f64),
    ]);
    table
}
