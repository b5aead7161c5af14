//! Server-side query-log analysis.
//!
//! The threat model (Section III-B) is an adversary who "analyzes the
//! search activity of the users after the fact". This module is that
//! analysis pipeline: it consumes the engine's [`LoggedQuery`] trace and
//! produces per-window topical boost timelines, flags topics whose
//! cumulative boost crosses a suspicion threshold, and detects bursts of
//! same-topic activity.
//!
//! A term-sharded engine is the same adversary: it keeps one log and
//! records each submission whole, so its trace is the single engine's
//! entry for entry and the analysis runs on it unchanged.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use toppriv_core::BeliefEngine;
use tsearch_lda::LdaModel;
use tsearch_search::LoggedQuery;

/// Analyzer configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LogAnalyzerConfig {
    /// Sliding-window width in queries.
    pub window: usize,
    /// Boost threshold above which a topic is flagged in a window.
    pub flag_threshold: f64,
}

impl Default for LogAnalyzerConfig {
    fn default() -> Self {
        Self {
            window: 8,
            flag_threshold: 0.05,
        }
    }
}

/// One analyzed window of the trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WindowAnalysis {
    /// Ordinal of the first query in the window.
    pub start: u64,
    /// Number of queries in the window.
    pub len: usize,
    /// The window's most boosted topic and its boost.
    pub top_topic: usize,
    /// `B(top_topic | window)`.
    pub top_boost: f64,
    /// Topics whose boost exceeds the flag threshold.
    pub flagged: Vec<usize>,
}

/// Whole-trace analysis output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogAnalysis {
    /// Per-window results, in order.
    pub windows: Vec<WindowAnalysis>,
    /// `B(t | whole trace)` for every topic.
    pub trace_boosts: Vec<f64>,
    /// Topics flagged in at least `min_windows` windows, with their
    /// window counts — the adversary's shortlist of suspected interests.
    pub persistent_topics: Vec<(usize, usize)>,
}

/// The analyzer: an LDA-equipped adversary over the query log.
pub struct LogAnalyzer {
    belief: BeliefEngine,
    config: LogAnalyzerConfig,
}

impl LogAnalyzer {
    /// Creates an analyzer with the given model and configuration.
    pub fn new(model: Arc<LdaModel>, config: LogAnalyzerConfig) -> Self {
        Self {
            belief: BeliefEngine::new(model),
            config,
        }
    }

    /// Analyzes a query log: sliding windows plus whole-trace aggregation.
    pub fn analyze(&self, log: &[LoggedQuery], min_windows: usize) -> LogAnalysis {
        let posteriors: Vec<Vec<f64>> = log
            .iter()
            .map(|q| self.belief.posterior(&q.tokens))
            .collect();
        let k = self.belief.num_topics();
        let window = self.config.window.max(1);
        let mut windows = Vec::new();
        let mut flag_counts = vec![0usize; k];
        let mut start = 0usize;
        while start < posteriors.len() {
            let end = (start + window).min(posteriors.len());
            let slice = &posteriors[start..end];
            let boosts = self.belief.cycle_boost(slice);
            let (top_topic, top_boost) = boosts
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(t, &b)| (t, b))
                .unwrap_or((0, 0.0));
            let flagged: Vec<usize> = boosts
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b > self.config.flag_threshold)
                .map(|(t, _)| t)
                .collect();
            for &t in &flagged {
                flag_counts[t] += 1;
            }
            windows.push(WindowAnalysis {
                start: log[start].ordinal,
                len: end - start,
                top_topic,
                top_boost,
                flagged,
            });
            start = end;
        }
        let trace_boosts = if posteriors.is_empty() {
            vec![0.0; k]
        } else {
            self.belief.cycle_boost(&posteriors)
        };
        let mut persistent_topics: Vec<(usize, usize)> = flag_counts
            .into_iter()
            .enumerate()
            .filter(|&(_, c)| c >= min_windows.max(1))
            .collect();
        persistent_topics.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        LogAnalysis {
            windows,
            trace_boosts,
            persistent_topics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toppriv_core::{GhostConfig, GhostGenerator, PrivacyRequirement};
    use tsearch_lda::{LdaConfig, LdaTrainer};
    use tsearch_text::TermId;

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

    fn log_entry(ordinal: u64, tokens: Vec<TermId>) -> LoggedQuery {
        LoggedQuery {
            ordinal,
            text: String::new(),
            tokens,
        }
    }

    #[test]
    fn unprotected_burst_is_flagged() {
        let model = trained_model();
        let analyzer = LogAnalyzer::new(model.clone(), LogAnalyzerConfig::default());
        // Ten raw queries, all on block 0.
        let log: Vec<LoggedQuery> = (0..10).map(|i| log_entry(i, vec![0, 1, 2, 3])).collect();
        let analysis = analyzer.analyze(&log, 1);
        assert!(!analysis.persistent_topics.is_empty(), "burst must be seen");
        let top = analysis.persistent_topics[0].0;
        // The flagged topic should be the block-0 topic.
        let belief = BeliefEngine::new(model.clone());
        let boosts = belief.boost(&[0, 1, 2, 3]);
        let true_top = (0..4)
            .max_by(|&a, &b| boosts[a].partial_cmp(&boosts[b]).unwrap())
            .unwrap();
        assert_eq!(top, true_top);
    }

    #[test]
    fn protected_trace_is_not_flagged() {
        let model = trained_model();
        let generator = GhostGenerator::new(
            BeliefEngine::new(model.clone()),
            PrivacyRequirement::new(0.10, 0.03).unwrap(),
            GhostConfig::default(),
        );
        let mut log = Vec::new();
        let mut ordinal = 0u64;
        let mut intent_topic = None;
        for _ in 0..5 {
            let result = generator.generate(&[0, 1, 2, 3]);
            intent_topic = result.intention.first().copied().or(intent_topic);
            for q in &result.cycle {
                log.push(log_entry(ordinal, q.tokens.clone()));
                ordinal += 1;
            }
        }
        let analyzer = LogAnalyzer::new(
            model.clone(),
            LogAnalyzerConfig {
                window: 8,
                flag_threshold: 0.05,
            },
        );
        let analysis = analyzer.analyze(&log, 2);
        if let Some(t) = intent_topic {
            let persistent: Vec<usize> =
                analysis.persistent_topics.iter().map(|&(t, _)| t).collect();
            assert!(
                !persistent.contains(&t) || persistent.len() > 1,
                "the genuine topic must not be the sole persistent flag: {persistent:?}"
            );
        }
    }

    #[test]
    fn empty_log() {
        let model = trained_model();
        let analyzer = LogAnalyzer::new(model.clone(), LogAnalyzerConfig::default());
        let analysis = analyzer.analyze(&[], 1);
        assert!(analysis.windows.is_empty());
        assert!(analysis.persistent_topics.is_empty());
        assert_eq!(analysis.trace_boosts.len(), 4);
    }

    #[test]
    fn window_partitioning() {
        let model = trained_model();
        let analyzer = LogAnalyzer::new(
            model.clone(),
            LogAnalyzerConfig {
                window: 3,
                flag_threshold: 0.9,
            },
        );
        let log: Vec<LoggedQuery> = (0..7).map(|i| log_entry(i, vec![0, 1])).collect();
        let analysis = analyzer.analyze(&log, 1);
        assert_eq!(analysis.windows.len(), 3); // 3 + 3 + 1
        assert_eq!(analysis.windows[0].len, 3);
        assert_eq!(analysis.windows[2].len, 1);
        assert_eq!(analysis.windows[2].start, 6);
    }
}
