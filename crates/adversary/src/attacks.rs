//! The attack strategies of Section IV-D.
//!
//! The adversary (the search engine) sees a cycle of queries and knows the
//! LDA model and the ghost-generation algorithm — but not the user's
//! secret `(ε1, ε2)` thresholds nor the client's RNG state. Each attack
//! here implements one of the four circumvention attempts the paper
//! analyzes, so the resilience claims can be tested empirically.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use toppriv_core::{
    semantic_coherence, BeliefEngine, GhostConfig, GhostGenerator, PrivacyRequirement,
};
use tsearch_lda::LdaModel;
use tsearch_text::TermId;

/// Attack 1: "discount a ghost query if its intention is exposed" —
/// operationalized as picking the query whose term combination looks most
/// (or least) plausible. Against TrackMeNot-style random ghosts it works
/// very well. TopPriv's ghosts are drawn from topic terms, yet coherence
/// is still a signal against them: at standard scale this attack picks
/// the genuine query 0.472 of the time against 0.148 chance (36 cycles).
#[derive(Debug, Clone)]
pub struct CoherenceAttack {
    model: Arc<LdaModel>,
}

impl CoherenceAttack {
    /// Creates the attack.
    pub fn new(model: Arc<LdaModel>) -> Self {
        Self { model }
    }

    /// Guesses the genuine query as the most coherent one (ghosts that are
    /// random jumbles score low; the genuine query is always meaningful).
    pub fn guess_genuine(&self, cycle: &[&[TermId]]) -> usize {
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for (i, q) in cycle.iter().enumerate() {
            let score = semantic_coherence(&self.model, q);
            if score > best_score {
                best_score = score;
                best = i;
            }
        }
        best
    }

    /// Coherence scores of the whole cycle (diagnostics).
    pub fn scores(&self, cycle: &[&[TermId]]) -> Vec<f64> {
        cycle
            .iter()
            .map(|q| semantic_coherence(&self.model, q))
            .collect()
    }
}

/// Attack 2: "discount high-exposure topics" — the adversary takes the top
/// `m` topics by `B(t|C)` as his guess of the intention. Without knowing
/// ε2 he cannot know how many topics to discount, and TopPriv pushes the
/// genuine topics *below* several masking topics.
#[derive(Debug, Clone)]
pub struct ExposureRankAttack {
    belief: BeliefEngine,
    /// Number of top-boost topics to claim as the intention.
    pub guess_m: usize,
}

impl ExposureRankAttack {
    /// Creates the attack guessing the top `guess_m` topics.
    pub fn new(model: Arc<LdaModel>, guess_m: usize) -> Self {
        Self {
            belief: BeliefEngine::new(model),
            guess_m,
        }
    }

    /// Boosts `B(t|C)` as the adversary computes them from the cycle.
    pub fn cycle_boosts(&self, cycle: &[&[TermId]]) -> Vec<f64> {
        let posteriors: Vec<Vec<f64>> = cycle.iter().map(|q| self.belief.posterior(q)).collect();
        self.belief.cycle_boost(&posteriors)
    }

    /// The top-m guess.
    pub fn guess_intention(&self, cycle: &[&[TermId]]) -> Vec<usize> {
        let boosts = self.cycle_boosts(cycle);
        let mut order: Vec<usize> = (0..boosts.len()).collect();
        order.sort_by(|&a, &b| boosts[b].partial_cmp(&boosts[a]).expect("finite"));
        order.truncate(self.guess_m);
        order
    }
}

/// Attack 3: "eliminate query words relating to high-exposure topics" —
/// the adversary strips, from every query in the cycle, the words that
/// rank highly under the most-exposed topics, then re-infers the intention
/// from what remains. The paper's point: polysemous words make this
/// destructive — genuine terms get removed and the recovered intention
/// drifts.
#[derive(Debug, Clone)]
pub struct TermEliminationAttack {
    belief: BeliefEngine,
    /// How many top-exposure topics to target.
    pub topics_to_discount: usize,
    /// Words within the top `word_pool` of a discounted topic are removed.
    pub word_pool: usize,
    /// The adversary's guess at ε1, needed to threshold the re-inferred
    /// intention.
    pub eps1_guess: f64,
}

impl TermEliminationAttack {
    /// Creates the attack with the given aggressiveness.
    pub fn new(
        model: Arc<LdaModel>,
        topics_to_discount: usize,
        word_pool: usize,
        eps1_guess: f64,
    ) -> Self {
        Self {
            belief: BeliefEngine::new(model),
            topics_to_discount,
            word_pool,
            eps1_guess,
        }
    }

    /// Runs the attack: returns the intention recovered from the truncated
    /// cycle.
    pub fn recover_intention(&self, cycle: &[&[TermId]]) -> Vec<usize> {
        // Find the high-exposure topics.
        let posteriors: Vec<Vec<f64>> = cycle.iter().map(|q| self.belief.posterior(q)).collect();
        let boosts = self.belief.cycle_boost(&posteriors);
        let mut order: Vec<usize> = (0..boosts.len()).collect();
        order.sort_by(|&a, &b| boosts[b].partial_cmp(&boosts[a]).expect("finite"));
        let discounted: Vec<usize> = order.into_iter().take(self.topics_to_discount).collect();
        // Collect the words to eliminate.
        let mut banned: std::collections::HashSet<TermId> = std::collections::HashSet::new();
        for &t in &discounted {
            for (w, _) in self.belief.model().top_words(t, self.word_pool) {
                banned.insert(w);
            }
        }
        // Truncate the cycle and re-infer.
        let truncated: Vec<Vec<TermId>> = cycle
            .iter()
            .map(|q| {
                q.iter()
                    .copied()
                    .filter(|w| !banned.contains(w))
                    .collect::<Vec<TermId>>()
            })
            .collect();
        let refs: Vec<&[TermId]> = truncated.iter().map(|q| q.as_slice()).collect();
        let posteriors: Vec<Vec<f64>> = refs.iter().map(|q| self.belief.posterior(q)).collect();
        let boosts = self.belief.cycle_boost(&posteriors);
        boosts
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b > self.eps1_guess)
            .map(|(t, _)| t)
            .collect()
    }
}

/// Attack 4: probing/replay — the adversary treats each query of the
/// cycle as the candidate user query, re-runs the (public) ghost
/// generation algorithm with his own randomness, and checks how well the
/// regenerated ghosts match the remaining queries. Because masking topics
/// and ghost words are drawn at random, replays do not reproduce the
/// observed cycle, and the match signal carries no information.
pub struct ProbingAttack {
    model: Arc<LdaModel>,
    requirement: PrivacyRequirement,
    config: GhostConfig,
    /// Replays per candidate (averaging out the adversary's own RNG).
    pub replays: usize,
}

impl ProbingAttack {
    /// Creates the attack; the adversary knows the algorithm and a guess
    /// of the thresholds, but not the client's seed.
    pub fn new(model: Arc<LdaModel>, requirement: PrivacyRequirement, replays: usize) -> Self {
        Self {
            model,
            requirement,
            config: GhostConfig::default(),
            replays,
        }
    }

    /// Similarity between a regenerated cycle and the observed remainder:
    /// mean best Jaccard overlap of token sets.
    fn replay_similarity(&self, regenerated: &[Vec<TermId>], observed: &[&[TermId]]) -> f64 {
        if regenerated.is_empty() || observed.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for r in regenerated {
            let rs: std::collections::HashSet<TermId> = r.iter().copied().collect();
            let best = observed
                .iter()
                .map(|o| {
                    let os: std::collections::HashSet<TermId> = o.iter().copied().collect();
                    let inter = rs.intersection(&os).count() as f64;
                    let union = rs.union(&os).count() as f64;
                    if union == 0.0 {
                        0.0
                    } else {
                        inter / union
                    }
                })
                .fold(0.0, f64::max);
            total += best;
        }
        total / regenerated.len() as f64
    }

    /// Guesses the genuine query as the candidate whose replayed ghosts
    /// best match the rest of the cycle.
    pub fn guess_genuine(&self, cycle: &[&[TermId]]) -> usize {
        let mut rng = StdRng::seed_from_u64(0xADE5A);
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for (i, candidate) in cycle.iter().enumerate() {
            let observed: Vec<&[TermId]> = cycle
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, q)| *q)
                .collect();
            let mut score = 0.0;
            for _ in 0..self.replays.max(1) {
                let generator = GhostGenerator::new(
                    BeliefEngine::new(self.model.clone()),
                    self.requirement,
                    GhostConfig {
                        seed: rng.gen(),
                        ..self.config.clone()
                    },
                );
                let replay = generator.generate(candidate);
                let ghosts: Vec<Vec<TermId>> = replay
                    .cycle
                    .iter()
                    .filter(|q| !q.is_genuine)
                    .map(|q| q.tokens.clone())
                    .collect();
                score += self.replay_similarity(&ghosts, &observed);
            }
            if score > best_score {
                best_score = score;
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsearch_lda::{LdaConfig, LdaTrainer};

    fn trained_model() -> Arc<LdaModel> {
        let mut docs = Vec::new();
        for d in 0..120u32 {
            let base = (d % 4) * 8;
            docs.push((0..40).map(|i| base + (i % 8)).collect::<Vec<TermId>>());
        }
        let refs: Vec<&[TermId]> = docs.iter().map(|d| d.as_slice()).collect();
        Arc::new(LdaTrainer::train(
            &refs,
            32,
            LdaConfig {
                iterations: 80,
                alpha: Some(0.3),
                ..LdaConfig::with_topics(4)
            },
        ))
    }

    #[test]
    fn coherence_attack_beats_random_ghosts() {
        let model = trained_model();
        let attack = CoherenceAttack::new(model.clone());
        // Cycle: a topical user query among random-jumble ghosts.
        let user: Vec<TermId> = vec![0, 1, 2, 3];
        let ghost1: Vec<TermId> = vec![0, 9, 17, 25]; // one word per block
        let ghost2: Vec<TermId> = vec![5, 12, 20, 30];
        let cycle: Vec<&[TermId]> = vec![&ghost1, &user, &ghost2];
        assert_eq!(attack.guess_genuine(&cycle), 1);
        let scores = attack.scores(&cycle);
        assert!(scores[1] > scores[0] && scores[1] > scores[2]);
    }

    #[test]
    fn coherence_attack_cannot_separate_coherent_ghosts() {
        let model = trained_model();
        let attack = CoherenceAttack::new(model.clone());
        // All queries coherent (each from one block).
        let q0: Vec<TermId> = vec![0, 1, 2, 3];
        let q1: Vec<TermId> = vec![8, 9, 10, 11];
        let q2: Vec<TermId> = vec![16, 17, 18, 19];
        let cycle: Vec<&[TermId]> = vec![&q0, &q1, &q2];
        let scores = attack.scores(&cycle);
        // No score dominates: max/min within a small factor.
        let max = scores.iter().cloned().fold(f64::MIN, f64::max);
        let min = scores.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max / min < 5.0,
            "coherent queries should look alike: {scores:?}"
        );
    }

    #[test]
    fn exposure_attack_recovers_unprotected_intention() {
        let model = trained_model();
        let attack = ExposureRankAttack::new(model.clone(), 1);
        let user: Vec<TermId> = vec![0, 1, 2, 3];
        let cycle: Vec<&[TermId]> = vec![&user];
        let guess = attack.guess_intention(&cycle);
        // Unprotected: the top topic is the genuine one.
        let belief = BeliefEngine::new(model.clone());
        let boosts = belief.boost(&user);
        let true_top = (0..4)
            .max_by(|&a, &b| boosts[a].partial_cmp(&boosts[b]).unwrap())
            .unwrap();
        assert_eq!(guess, vec![true_top]);
    }

    #[test]
    fn term_elimination_runs_and_returns_topics() {
        let model = trained_model();
        let attack = TermEliminationAttack::new(model.clone(), 1, 8, 0.05);
        let user: Vec<TermId> = vec![0, 1, 2, 3];
        let ghost: Vec<TermId> = vec![8, 9, 10, 11];
        let cycle: Vec<&[TermId]> = vec![&user, &ghost];
        let recovered = attack.recover_intention(&cycle);
        for &t in &recovered {
            assert!(t < 4);
        }
    }

    #[test]
    fn probing_attack_runs() {
        let model = trained_model();
        let attack = ProbingAttack::new(
            model.clone(),
            PrivacyRequirement::new(0.10, 0.05).unwrap(),
            1,
        );
        let generator = GhostGenerator::new(
            BeliefEngine::new(model.clone()),
            PrivacyRequirement::new(0.10, 0.05).unwrap(),
            GhostConfig::default(),
        );
        let result = generator.generate(&[0, 1, 2, 3]);
        let cycle = result.cycle_tokens();
        let guess = attack.guess_genuine(&cycle);
        assert!(guess < cycle.len());
    }
}
