//! Topic-cognizant ghost query generation — the TopPriv algorithm of
//! Section IV-C.
//!
//! Given a user query, the generator:
//! 1. infers the intention `U` (topics boosted above ε1);
//! 2. repeatedly picks a masking topic `tm ∈ T\U\Tm\X`, composes a
//!    semantically coherent ghost query from words descriptive of `tm`
//!    (biased by `Pr(w) = Σ_t Pr(w|t)·1[t=tm] = Pr(w|tm)`);
//! 3. keeps the ghost only if it lowers the exposure of `U` (otherwise the
//!    topic goes into the ineffective set `X` and another is tried);
//! 4. stops when every `t ∈ U` has `B(t|C) ≤ ε2`, or when masking topics
//!    are exhausted;
//! 5. shuffles the cycle before submission.
//!
//! **One member, one inference.** Every bag is sorted *before* it is
//! inferred — fold-in inference is seeded from and swept in token order,
//! and the sorted bag is what the cycle stores and the engine sees — so
//! the certificate is about exactly what is submitted. Each accepted
//! member's posterior stays beside the member through the shuffle and is
//! handed back by [`GhostGenerator::generate_with_posteriors`]; callers
//! that account the cycle (the service's sessions) never infer a member
//! a second time.

use crate::belief::BeliefEngine;
use crate::metrics::{exposure, PrivacyMetrics};
use crate::privacy::PrivacyRequirement;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use tsearch_text::TermId;

/// How ghost terms are drawn from a masking topic's distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TermSelection {
    /// The paper's Step 3(b): bias toward high `Pr(w|tm)` within the
    /// term pool, regardless of how common the words are corpus-wide.
    #[default]
    Biased,
    /// Extension: additionally match the *specificity* of the genuine
    /// query. Each word's specificity is `−ln Pr(w)` under the model
    /// (`Pr(w) = Σ_t Pr(w|t)·Pr(t)` — computable client-side with no
    /// extra data); the candidate pool is re-ranked so ghost words sit in
    /// the same specificity band as the user's words. Motivated by two
    /// measured weaknesses of `Biased`: popular ghost terms cost the
    /// engine ~7× a genuine query (experiment `load`), and their lower
    /// sharpness is a classifier tell (experiment `classifier`) — the
    /// same reasoning PDX applies to its decoy terms.
    SpecificityMatched,
}

/// Ghost generation parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GhostConfig {
    /// Minimum ghost length as a multiple of `|qu|` (Step 3a).
    pub min_len_mult: f64,
    /// Maximum ghost length as a multiple of `|qu|`.
    pub max_len_mult: f64,
    /// Hard cap on cycle length (the algorithm naturally terminates after
    /// exhausting `T\U`, but a cap keeps worst-case latency bounded).
    pub max_cycle_len: usize,
    /// Ghost words are sampled (weight-biased) from the `term_pool` most
    /// descriptive words of the masking topic. A bounded pool makes the
    /// ghosts as statistically sharp as real topical queries — the paper's
    /// example ghosts ("dow index investors … stock volume") are exactly
    /// the top words of their topics. `0` means the whole vocabulary.
    pub term_pool: usize,
    /// Term-selection strategy (see [`TermSelection`]).
    pub term_selection: TermSelection,
    /// RNG seed; combined with the query content for per-query determinism.
    pub seed: u64,
}

impl Default for GhostConfig {
    fn default() -> Self {
        Self {
            min_len_mult: 1.0,
            max_len_mult: 2.0,
            max_cycle_len: 64,
            term_pool: 40,
            term_selection: TermSelection::default(),
            seed: 0x607057,
        }
    }
}

/// One query of a cycle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CycleQuery {
    /// Analyzed token ids (sorted — the engine treats queries as bags of
    /// words, and sorting hides any generation order).
    pub tokens: Vec<TermId>,
    /// Whether this is the genuine user query. Ground-truth label for
    /// evaluation only; never shown to the server.
    pub is_genuine: bool,
    /// The masking topic of a ghost query (`None` for the genuine query).
    pub masking_topic: Option<usize>,
}

/// The outcome of running the TopPriv algorithm on one user query.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CycleResult {
    /// The shuffled cycle `C` (genuine query plus ghosts).
    pub cycle: Vec<CycleQuery>,
    /// Index of the genuine query inside `cycle`.
    pub genuine_index: usize,
    /// The protected intention `U` (topic ids).
    pub intention: Vec<usize>,
    /// Boost vector `B(t|qu)` of the unprotected query.
    pub solo_boosts: Vec<f64>,
    /// Boost vector `B(t|C)` of the final cycle.
    pub cycle_boosts: Vec<f64>,
    /// Masking topics actually used, in generation order.
    pub masking_topics: Vec<usize>,
    /// Topics tried and found ineffective (the set `X`).
    pub ineffective_topics: Vec<usize>,
    /// Whether Definition 4 holds for the final cycle.
    pub satisfied: bool,
    /// Metrics bundle (exposure, mask, υ, generation time, ...).
    pub metrics: PrivacyMetrics,
}

impl CycleResult {
    /// Cycle length υ.
    pub fn cycle_len(&self) -> usize {
        self.cycle.len()
    }

    /// The genuine query's tokens.
    pub fn genuine(&self) -> &CycleQuery {
        &self.cycle[self.genuine_index]
    }

    /// Token slices of the whole cycle (adversary view).
    pub fn cycle_tokens(&self) -> Vec<&[TermId]> {
        self.cycle.iter().map(|q| q.tokens.as_slice()).collect()
    }
}

/// The TopPriv ghost query generator.
#[derive(Debug, Clone)]
pub struct GhostGenerator {
    belief: BeliefEngine,
    requirement: PrivacyRequirement,
    config: GhostConfig,
}

impl GhostGenerator {
    /// Creates a generator.
    pub fn new(belief: BeliefEngine, requirement: PrivacyRequirement, config: GhostConfig) -> Self {
        Self {
            belief,
            requirement,
            config,
        }
    }

    /// The belief engine in use.
    pub fn belief(&self) -> &BeliefEngine {
        &self.belief
    }

    /// The privacy requirement in force.
    pub fn requirement(&self) -> PrivacyRequirement {
        self.requirement
    }

    /// Runs the algorithm of Section IV-C on `user_tokens`.
    pub fn generate(&self, user_tokens: &[TermId]) -> CycleResult {
        self.generate_with_posteriors(user_tokens).0
    }

    /// [`GhostGenerator::generate`] that also hands back every member's
    /// posterior `Pr(t|q)`, aligned with the shuffled `cycle` — the very
    /// vectors `cycle_boosts` and `satisfied` were computed from, and
    /// bit-equal to `belief.posterior(&q.tokens)` of each member.
    pub fn generate_with_posteriors(&self, user_tokens: &[TermId]) -> (CycleResult, Vec<Vec<f64>>) {
        self.run(user_tokens, None)
    }

    /// Variant with a fixed target cycle length υ, used by the Figure 5
    /// comparison against PDX at equal word budgets: exactly `target − 1`
    /// ghosts are generated (the ε2 stopping rule is ignored; the Step 3c
    /// effectiveness check still applies, and masking topics may repeat
    /// once `T\U` is exhausted).
    pub fn generate_with_target(&self, user_tokens: &[TermId], target: usize) -> CycleResult {
        self.run(user_tokens, Some(target.max(1))).0
    }

    /// The algorithm itself: the cycle, and each member's posterior
    /// aligned with it.
    pub(crate) fn run(
        &self,
        user_tokens: &[TermId],
        target_cycle_len: Option<usize>,
    ) -> (CycleResult, Vec<Vec<f64>>) {
        let start = Instant::now();
        let num_topics = self.belief.num_topics();
        let prior = self.belief.prior();
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ token_hash(user_tokens));

        // Step 1: intention.
        let genuine = sorted(user_tokens.to_vec());
        let user_posterior = self.belief.posterior(&genuine);
        let solo_boosts = BeliefEngine::boost_from_posterior(&user_posterior, prior);
        let intention = self.requirement.user_intention(&solo_boosts);
        // SpecificityMatched: ghosts should be as rare/common as the
        // genuine query's own words.
        let matched = self.config.term_selection == TermSelection::SpecificityMatched;
        let target_spec = (matched && !user_tokens.is_empty()).then(|| {
            let specificity = self.belief.model().word_specificity();
            let sum: f64 = user_tokens.iter().map(|&w| specificity[w as usize]).sum();
            sum / user_tokens.len() as f64
        });

        // Step 2: initialization. `posterior_sum` is Equation (2)'s
        // numerator over the accepted members, summed in generation order
        // and divided once per evaluation — the float operations of
        // `BeliefEngine::cycle_boost` over the same posteriors.
        let mut posterior_sum = vec![0.0f64; num_topics];
        add_into(&mut posterior_sum, &user_posterior);
        let mut cycle: Vec<(CycleQuery, Vec<f64>)> = vec![(
            CycleQuery {
                tokens: genuine,
                is_genuine: true,
                masking_topic: None,
            },
            user_posterior,
        )];
        let mut masking: Vec<usize> = Vec::new(); // Tm
        let mut ineffective: Vec<usize> = Vec::new(); // X
        let mut eligible = vec![true; num_topics]; // T \ U \ Tm \ X
        for &t in &intention {
            eligible[t] = false;
        }

        // Step 3: the repeat loop.
        let cap = target_cycle_len
            .map(|t| t.min(self.config.max_cycle_len))
            .unwrap_or(self.config.max_cycle_len);
        let mut cycle_boosts = solo_boosts.clone();
        let mut cycle_exposure = exposure(&cycle_boosts, &intention);
        let mut candidates: Vec<usize> = Vec::with_capacity(num_topics);
        let mut attempts = 0usize;
        let max_attempts = (cap * 8).max(num_topics * 2);
        loop {
            attempts += 1;
            if attempts > max_attempts {
                break;
            }
            let done = match target_cycle_len {
                // Fixed-υ mode: stop only at the target length.
                Some(target) => cycle.len() >= target,
                // Paper mode: stop when (ε1, ε2)-privacy holds.
                None => self.requirement.is_satisfied(&cycle_boosts, &intention),
            };
            if done || cycle.len() >= cap {
                break;
            }
            candidates.clear();
            candidates.extend((0..num_topics).filter(|&t| eligible[t]));
            let mut reuse_phase = false;
            if candidates.is_empty() {
                if target_cycle_len.is_some() {
                    // Fixed-υ mode keeps going: allow masking topics to
                    // repeat (but never intention topics), and stop
                    // filtering on effectiveness — the word budget must be
                    // spent even when exposure cannot drop further.
                    reuse_phase = true;
                    candidates.extend((0..num_topics).filter(|t| !intention.contains(t)));
                    if candidates.is_empty() {
                        break;
                    }
                } else {
                    break; // exhausted all masking topics (paper: exit loop)
                }
            }
            // Step 3(b): random masking topic, coherent ghost terms.
            let tm = candidates[rng.gen_range(0..candidates.len())];
            let ghost_len = self.sample_ghost_len(user_tokens.len().max(1), &mut rng);
            let ghost_tokens =
                sorted(self.sample_ghost_terms(tm, ghost_len, target_spec, &mut rng));
            if ghost_tokens.is_empty() {
                ineffective.push(tm);
                eligible[tm] = false;
                continue;
            }
            // Step 3(c): effectiveness check.
            let ghost_posterior = self.belief.posterior(&ghost_tokens);
            let members = (cycle.len() + 1) as f64;
            let new_boosts: Vec<f64> = (0..num_topics)
                .map(|t| (posterior_sum[t] + ghost_posterior[t]) / members - prior[t])
                .collect();
            let new_exposure = exposure(&new_boosts, &intention);
            if !reuse_phase && new_exposure >= cycle_exposure {
                // Ghost increases (or fails to reduce) exposure: discard it
                // and mark the topic ineffective.
                ineffective.push(tm);
                eligible[tm] = false;
                continue;
            }
            // Step 3(d): accept.
            masking.push(tm);
            eligible[tm] = false;
            add_into(&mut posterior_sum, &ghost_posterior);
            cycle.push((
                CycleQuery {
                    tokens: ghost_tokens,
                    is_genuine: false,
                    masking_topic: Some(tm),
                },
                ghost_posterior,
            ));
            cycle_boosts = new_boosts;
            cycle_exposure = new_exposure;
        }

        // Step 4: shuffle — members and their posteriors together.
        shuffle(&mut cycle, &mut rng);
        let (cycle, posteriors): (Vec<CycleQuery>, Vec<Vec<f64>>) = cycle.into_iter().unzip();
        let genuine_index = cycle
            .iter()
            .position(|q| q.is_genuine)
            .expect("genuine query present");

        let satisfied = self.requirement.is_satisfied(&cycle_boosts, &intention);
        let mut metrics = PrivacyMetrics::from_boosts(&cycle_boosts, &intention);
        metrics.cycle_len = cycle.len();
        metrics.generation_secs = start.elapsed().as_secs_f64();
        let result = CycleResult {
            cycle,
            genuine_index,
            intention,
            solo_boosts,
            cycle_boosts,
            masking_topics: masking,
            ineffective_topics: ineffective,
            satisfied,
            metrics,
        };
        (result, posteriors)
    }

    /// Step 3(a): ghost length as a random multiple of `|qu|`.
    fn sample_ghost_len(&self, user_len: usize, rng: &mut StdRng) -> usize {
        let mult = if self.config.max_len_mult > self.config.min_len_mult {
            rng.gen_range(self.config.min_len_mult..self.config.max_len_mult)
        } else {
            self.config.min_len_mult
        };
        ((user_len as f64 * mult).round() as usize).max(1)
    }

    /// Step 3(b): `|qg|` distinct words sampled with bias toward high
    /// `Pr(w|tm)` — semantically coherent by Definition 3 because they all
    /// describe `tm`. With [`TermSelection::SpecificityMatched`] and a
    /// target, the pool is re-ranked so the retained candidates sit in
    /// the genuine query's specificity band.
    fn sample_ghost_terms(
        &self,
        tm: usize,
        len: usize,
        target_spec: Option<f64>,
        rng: &mut StdRng,
    ) -> Vec<TermId> {
        // Candidate pool: the most descriptive words of the masking topic
        // (Pr(w) = Σ_t Pr(w|t)·1[t=tm] = Pr(w|tm), per Step 3b's one-hot
        // topic vector), truncated to keep ghosts as sharp as real queries.
        let model = self.belief.model();
        let pool = match target_spec {
            Some(target) if self.config.term_pool > 0 => {
                // Wider slice of the topic's words, re-ranked by distance
                // to the target specificity, truncated to the pool size.
                // Weights stay Pr(w|tm) so the ghost remains coherent.
                let wide = self.config.term_pool * 4;
                let mut candidates = model.top_words(tm, wide);
                let specificity = model.word_specificity();
                candidates.sort_by(|a, b| {
                    let da = (specificity[a.0 as usize] - target).abs();
                    let db = (specificity[b.0 as usize] - target).abs();
                    da.partial_cmp(&db).expect("finite specificity")
                });
                candidates.truncate(self.config.term_pool);
                candidates
            }
            _ if self.config.term_pool == 0 => {
                let dist = model.topic_word_dist(tm);
                (0..dist.len() as TermId)
                    .map(|w| (w, dist[w as usize]))
                    .collect::<Vec<_>>()
            }
            _ => model.top_words(tm, self.config.term_pool),
        };
        let total: f64 = pool.iter().map(|&(_, p)| p).sum();
        if total <= 0.0 {
            return Vec::new();
        }
        // Cumulative table for inverse-CDF sampling within the pool.
        let mut cumulative = Vec::with_capacity(pool.len());
        let mut acc = 0.0;
        for &(_, p) in &pool {
            acc += p;
            cumulative.push(acc);
        }
        // A ghost is a handful of words: a linear `contains` beats hashing.
        let mut chosen: Vec<TermId> = Vec::with_capacity(len);
        let mut attempts = 0usize;
        let max_attempts = len * 50 + 100;
        while chosen.len() < len.min(pool.len()) && attempts < max_attempts {
            attempts += 1;
            let u = rng.gen::<f64>() * acc;
            let idx =
                match cumulative.binary_search_by(|probe| probe.partial_cmp(&u).expect("finite")) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                }
                .min(cumulative.len() - 1);
            let term = pool[idx].0;
            if !chosen.contains(&term) {
                chosen.push(term);
            }
        }
        chosen
    }
}

fn sorted(mut tokens: Vec<TermId>) -> Vec<TermId> {
    tokens.sort_unstable();
    tokens
}

/// `sum[t] += posterior[t]` — one step of Equation (2)'s numerator.
pub(crate) fn add_into(sum: &mut [f64], posterior: &[f64]) {
    for (s, &p) in sum.iter_mut().zip(posterior) {
        *s += p;
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

fn token_hash(tokens: &[TermId]) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    tokens.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsearch_lda::{LdaConfig, LdaModel, LdaTrainer};

    /// Train a 4-topic model over four separated word blocks of 8 words.
    fn trained_model() -> std::sync::Arc<LdaModel> {
        let mut docs = Vec::new();
        for d in 0..120 {
            let base: u32 = (d % 4) * 8;
            docs.push(
                (0..40)
                    .map(|i| base + (i % 8) as u32)
                    .collect::<Vec<TermId>>(),
            );
        }
        let refs: Vec<&[TermId]> = docs.iter().map(|d| d.as_slice()).collect();
        std::sync::Arc::new(LdaTrainer::train(
            &refs,
            32,
            LdaConfig {
                iterations: 80,
                alpha: Some(0.3),
                ..LdaConfig::with_topics(4)
            },
        ))
    }

    fn generator(model: &std::sync::Arc<LdaModel>) -> GhostGenerator {
        GhostGenerator::new(
            BeliefEngine::new(model.clone()),
            PrivacyRequirement::new(0.10, 0.05).unwrap(),
            GhostConfig::default(),
        )
    }

    #[test]
    fn produces_a_cycle_with_ghosts() {
        let model = trained_model();
        let gen = generator(&model);
        let result = gen.generate(&[0, 1, 2, 3]);
        assert!(!result.intention.is_empty(), "on-topic query has intention");
        assert!(result.cycle_len() >= 2, "ghosts were generated");
        assert_eq!(
            result.cycle.iter().filter(|q| q.is_genuine).count(),
            1,
            "exactly one genuine query"
        );
        assert!(result.cycle[result.genuine_index].is_genuine);
    }

    #[test]
    fn ghosts_reduce_exposure() {
        let model = trained_model();
        let gen = generator(&model);
        let result = gen.generate(&[0, 1, 2, 3]);
        let solo_exposure = exposure(&result.solo_boosts, &result.intention);
        assert!(
            result.metrics.exposure < solo_exposure,
            "cycle exposure {} should be below solo {}",
            result.metrics.exposure,
            solo_exposure
        );
    }

    #[test]
    fn ghost_terms_avoid_intention_topics() {
        let model = trained_model();
        let gen = generator(&model);
        let result = gen.generate(&[0, 1, 2, 3]);
        for &tm in &result.masking_topics {
            assert!(
                !result.intention.contains(&tm),
                "masking topic {tm} is in the intention"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let model = trained_model();
        let gen = generator(&model);
        // The first run sorts the word rankings of the topics it masks
        // with (they live in the shared model); every later run, by this
        // generator or another over the same `Arc`, only reads them.
        let a = gen.generate(&[0, 1, 2]);
        let b = gen.generate(&[0, 1, 2]);
        let warmed_elsewhere = generator(&model);
        warmed_elsewhere.generate(&[8, 9, 10, 11]);
        let c = warmed_elsewhere.generate(&[0, 1, 2]);
        for other in [&b, &c] {
            assert_eq!(a.cycle_len(), other.cycle_len());
            for (qa, qb) in a.cycle.iter().zip(&other.cycle) {
                assert_eq!(qa.tokens, qb.tokens);
                assert_eq!(qa.is_genuine, qb.is_genuine);
                assert_eq!(qa.masking_topic, qb.masking_topic);
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn certificate_is_computed_from_the_submitted_bags() {
        let model = trained_model();
        let belief = BeliefEngine::new(model.clone());
        let gen = generator(&model);
        let mut rng = StdRng::seed_from_u64(0xCE27);
        let mut ghosts = 0usize;
        for _ in 0..300 {
            // Unsorted on purpose, duplicates allowed: inference is seeded
            // from and swept in token order, so order is what must not leak
            // into the certificate.
            let base = rng.gen_range(0..4u32) * 8;
            let user: Vec<TermId> = (0..rng.gen_range(2..=8))
                .map(|_| base + rng.gen_range(0..8u32))
                .collect();
            let (result, posteriors) = gen.generate_with_posteriors(&user);
            assert_eq!(posteriors.len(), result.cycle_len());
            ghosts += result.cycle_len() - 1;
            for (q, posterior) in result.cycle.iter().zip(&posteriors) {
                assert!(q.tokens.windows(2).all(|w| w[0] <= w[1]), "stored sorted");
                assert_eq!(
                    bits(posterior),
                    bits(&belief.posterior(&q.tokens)),
                    "a member's posterior is that of the bag as submitted"
                );
            }
            // Equation (2) over the members as shuffled: the same sum in
            // another order.
            let shuffled = belief.cycle_boost(&posteriors);
            for (reported, recomputed) in result.cycle_boosts.iter().zip(&shuffled) {
                assert!((reported - recomputed).abs() < 1e-12);
            }
            // In generation order — genuine first, then one ghost per
            // masking topic — it is the same sum, bit for bit.
            let mut generated = vec![posteriors[result.genuine_index].clone()];
            for &tm in &result.masking_topics {
                let at = result
                    .cycle
                    .iter()
                    .position(|q| q.masking_topic == Some(tm))
                    .expect("every masking topic has its ghost");
                generated.push(posteriors[at].clone());
            }
            let recomputed = belief.cycle_boost(&generated);
            assert_eq!(bits(&result.cycle_boosts), bits(&recomputed));
            assert_eq!(
                result.satisfied,
                gen.requirement()
                    .is_satisfied(&recomputed, &result.intention)
            );
        }
        assert!(ghosts > 300, "the cycles under test carry ghosts: {ghosts}");
    }

    #[test]
    fn ghost_queries_are_coherent() {
        // All terms of a ghost should rank highly under its masking topic:
        // semantically coherent by construction (Definition 3).
        let model = trained_model();
        let gen = generator(&model);
        let result = gen.generate(&[0, 1, 2, 3]);
        let uniform = 1.0 / model.vocab_size() as f64;
        for q in &result.cycle {
            let Some(tm) = q.masking_topic else { continue };
            let mean_p: f64 =
                q.tokens.iter().map(|&w| model.phi(tm, w)).sum::<f64>() / q.tokens.len() as f64;
            // Weight-biased sampling can occasionally pick a low-mass word,
            // but on average ghost words must be far more probable under
            // their masking topic than a uniform draw would be.
            assert!(
                mean_p > 3.0 * uniform,
                "ghost for topic {tm} not coherent: mean Pr(w|tm) = {mean_p}, uniform = {uniform}"
            );
        }
    }

    #[test]
    fn off_intent_query_needs_no_ghosts() {
        let model = trained_model();
        // A requirement so loose nothing is ever relevant.
        let gen = GhostGenerator::new(
            BeliefEngine::new(model.clone()),
            PrivacyRequirement::new(0.95, 0.95).unwrap(),
            GhostConfig::default(),
        );
        let result = gen.generate(&[0, 1]);
        assert!(result.intention.is_empty());
        assert_eq!(result.cycle_len(), 1, "no ghosts needed");
        assert!(result.satisfied);
    }

    #[test]
    fn cycle_len_is_capped() {
        let model = trained_model();
        let gen = GhostGenerator::new(
            BeliefEngine::new(model.clone()),
            // Impossibly tight ε2 forces the loop to run long.
            PrivacyRequirement::new(0.0001, 0.0001).unwrap(),
            GhostConfig {
                max_cycle_len: 3,
                ..GhostConfig::default()
            },
        );
        let result = gen.generate(&[0, 1, 2, 3]);
        assert!(result.cycle_len() <= 3);
    }

    #[test]
    fn step_3c_rejects_a_ghost_that_carries_the_intention() {
        // Topics 0 and 1 share the same four words; topic 2 owns four
        // others. Topic 1 is the corpus's most common topic, so a query in
        // those words boosts topic 0 alone: the intention is {0}, and
        // topic 1 is a masking topic whose ghost can only be the query
        // itself, which cannot lower the exposure.
        let (k, v) = (3, 8);
        let mut phi_wk = vec![0.0; v * k];
        for w in 0..4 {
            phi_wk[w * k] = 0.25;
            phi_wk[w * k + 1] = 0.25;
        }
        for w in 4..8 {
            phi_wk[w * k + 2] = 0.25;
        }
        let theta_dk: Vec<f64> = (0..10)
            .flat_map(|d| match d {
                0 => [0.9, 0.05, 0.05],
                1..=6 => [0.02, 0.9, 0.08],
                _ => [0.02, 0.08, 0.9],
            })
            .collect();
        let model = std::sync::Arc::new(LdaModel::from_parts(k, v, 0.1, 0.1, phi_wk, theta_dk));
        model.validate().unwrap();
        let gen = GhostGenerator::new(
            BeliefEngine::new(model),
            PrivacyRequirement::new(0.10, 0.01).unwrap(),
            GhostConfig::default(),
        );
        let result = gen.generate(&[0, 1, 2, 3]);
        assert_eq!(result.intention, vec![0]);
        assert!(
            result.ineffective_topics.contains(&1),
            "the intention-carrying ghost is rejected: {result:?}"
        );
        assert!(!result.masking_topics.contains(&1));
    }

    #[test]
    fn ghost_lengths_track_user_query() {
        let model = trained_model();
        let gen = generator(&model);
        let user = [0u32, 1, 2, 3, 4, 5];
        let result = gen.generate(&user);
        for q in &result.cycle {
            if !q.is_genuine {
                assert!(q.tokens.len() >= user.len(), "min multiple 1.0");
                assert!(q.tokens.len() <= 2 * user.len() + 1, "max multiple 2.0");
            }
        }
    }

    #[test]
    fn fixed_target_mode_hits_requested_length() {
        let model = trained_model();
        let gen = generator(&model);
        for target in [2usize, 4, 6] {
            let result = gen.generate_with_target(&[0, 1, 2, 3], target);
            assert_eq!(
                result.cycle_len(),
                target,
                "target {target} produced {}",
                result.cycle_len()
            );
            assert_eq!(result.cycle.iter().filter(|q| q.is_genuine).count(), 1);
        }
    }

    #[test]
    fn fixed_target_can_exceed_topic_count() {
        // 4 topics total, target 8: masking topics must repeat.
        let model = trained_model();
        let gen = generator(&model);
        let result = gen.generate_with_target(&[0, 1, 2, 3], 8);
        assert!(result.cycle_len() >= 4, "got {}", result.cycle_len());
    }

    #[test]
    fn metrics_are_populated() {
        let model = trained_model();
        let gen = generator(&model);
        let result = gen.generate(&[0, 1, 2, 3]);
        assert_eq!(result.metrics.cycle_len, result.cycle_len());
        assert!(result.metrics.generation_secs >= 0.0);
        assert_eq!(result.metrics.num_relevant, result.intention.len());
    }

    #[test]
    fn specificity_matched_generator_still_satisfies() {
        let model = trained_model();
        let generator = GhostGenerator::new(
            BeliefEngine::new(model.clone()),
            PrivacyRequirement::new(0.10, 0.05).unwrap(),
            GhostConfig {
                term_selection: TermSelection::SpecificityMatched,
                ..GhostConfig::default()
            },
        );
        let result = generator.generate(&[0, 1, 2, 3]);
        assert!(!result.intention.is_empty());
        assert!(result.cycle_len() > 1, "ghosts are still generated");
        // Ghost terms never come from the intention topic's word block.
        for (i, q) in result.cycle.iter().enumerate() {
            if i != result.genuine_index {
                assert!(q.tokens.iter().all(|&w| w >= 8 || w >= 32));
            }
        }
    }

    #[test]
    fn specificity_matching_shifts_ghost_terms_toward_query_band() {
        // A model with a skewed prior makes some words much more common
        // than others; a rare-term query should pull ghost terms toward
        // the rare end relative to the paper's Biased strategy.
        let model = trained_model();
        let word_prior = word_prior(&model);
        let mk = |selection: TermSelection| {
            GhostGenerator::new(
                BeliefEngine::new(model.clone()),
                PrivacyRequirement::new(0.10, 0.05).unwrap(),
                GhostConfig {
                    term_selection: selection,
                    term_pool: 4,
                    ..GhostConfig::default()
                },
            )
        };
        // Query = the two *rarest* words of topic block 0.
        let mut block0: Vec<TermId> = (0..8).collect();
        block0.sort_by(|&a, &b| {
            word_prior[a as usize]
                .partial_cmp(&word_prior[b as usize])
                .unwrap()
        });
        let query = vec![block0[0], block0[1]];
        let mean_ghost_prior = |generator: &GhostGenerator| -> f64 {
            let mut sum = 0.0;
            let mut n = 0usize;
            for seed in 0..6u32 {
                let mut q = query.clone();
                q.push(block0[(seed % 2) as usize]); // vary hash -> vary rng
                let r = generator.generate(&q);
                for (i, cq) in r.cycle.iter().enumerate() {
                    if i != r.genuine_index {
                        for &w in &cq.tokens {
                            sum += word_prior[w as usize];
                            n += 1;
                        }
                    }
                }
            }
            if n == 0 {
                f64::NAN
            } else {
                sum / n as f64
            }
        };
        let biased = mk(TermSelection::Biased);
        let matched = mk(TermSelection::SpecificityMatched);
        let p_biased = mean_ghost_prior(&biased);
        let p_matched = mean_ghost_prior(&matched);
        assert!(p_biased.is_finite() && p_matched.is_finite());
        assert!(
            p_matched <= p_biased + 1e-12,
            "matched ghosts ({p_matched:.3e}) should not be more common than biased ({p_biased:.3e})"
        );
    }

    /// `Pr(w)` for every word, as each `SpecificityMatched` generator
    /// used to compute it for itself.
    fn word_prior(model: &LdaModel) -> Vec<f64> {
        (0..model.vocab_size() as TermId)
            .map(|w| {
                model
                    .word_topics(w)
                    .iter()
                    .zip(model.prior())
                    .map(|(&phi, &p)| phi * p)
                    .sum()
            })
            .collect()
    }

    #[test]
    fn the_model_specificity_table_draws_the_per_generator_cycles() {
        let model = trained_model();
        let prior = word_prior(&model);
        for (w, &specificity) in model.word_specificity().iter().enumerate() {
            let old = -prior[w].max(f64::MIN_POSITIVE).ln();
            assert_eq!(specificity.to_bits(), old.to_bits(), "word {w}");
        }
        // Cycles drawn when every generator built its own table:
        // (term pool, query, cycle tokens).
        type Drawn = (usize, &'static [TermId], &'static [&'static [TermId]]);
        let expected: [Drawn; 10] = [
            (
                4,
                &[0, 1, 2, 3],
                &[
                    &[8, 9, 10, 11],
                    &[24, 25, 26, 27],
                    &[0, 1, 2, 3],
                    &[16, 17, 18, 19],
                ],
            ),
            (4, &[8, 9], &[&[0, 1, 2, 3], &[8, 9], &[24, 25, 27]]),
            (
                4,
                &[16, 17, 30],
                &[&[24, 25, 26, 27], &[16, 17, 30], &[8, 9, 10, 11]],
            ),
            (4, &[5, 13, 21, 29], &[&[5, 13, 21, 29]]),
            (4, &[31], &[&[16, 19], &[8], &[31]]),
            (
                12,
                &[0, 1, 2, 3],
                &[
                    &[9, 10, 11, 13, 14, 15],
                    &[17, 18, 20, 21, 23],
                    &[24, 26, 27, 31],
                    &[0, 1, 2, 3],
                ],
            ),
            (12, &[8, 9], &[&[8, 9], &[24, 27, 28, 29], &[0, 1, 6, 7]]),
            (
                12,
                &[16, 17, 30],
                &[&[24, 26, 28, 29, 30, 31], &[16, 17, 30]],
            ),
            (12, &[5, 13, 21, 29], &[&[5, 13, 21, 29]]),
            (12, &[31], &[&[17, 22], &[9], &[31]]),
        ];
        for (term_pool, query, cycle) in expected {
            let generator = GhostGenerator::new(
                BeliefEngine::new(model.clone()),
                PrivacyRequirement::new(0.10, 0.05).unwrap(),
                GhostConfig {
                    term_selection: TermSelection::SpecificityMatched,
                    term_pool,
                    ..GhostConfig::default()
                },
            );
            let got = generator.generate(query);
            assert_eq!(
                got.cycle_tokens(),
                cycle,
                "pool {term_pool} query {query:?}"
            );
        }
    }
}
