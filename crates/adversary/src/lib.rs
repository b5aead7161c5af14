//! # toppriv-adversary
//!
//! Implementations of the four adversary strategies of Section IV-D —
//! discounting ghost queries by plausibility, discounting high-exposure
//! topics, eliminating words of high-exposure topics, and probing replays
//! of the ghost-generation algorithm — together with evaluation harnesses
//! that measure each attack's success rate against chance.
//!
//! The paper argues each attack fails; experiment `adv1` of the
//! reproduction quantifies that empirically.

pub mod attacks;
pub mod classifier;
pub mod eval;
pub mod logview;
pub mod timing;

pub use attacks::{CoherenceAttack, ExposureRankAttack, ProbingAttack, TermEliminationAttack};
pub use classifier::{run_classifier_attack, ClassifierAttackReport, NaiveBayes};
pub use eval::{
    jaccard, run_coherence_attack, run_exposure_attack, run_probing_attack,
    run_term_elimination_attack, AttackReport,
};
pub use logview::{LogAnalysis, LogAnalyzer, LogAnalyzerConfig, WindowAnalysis};
pub use timing::{
    guess_genuine, run_timing_attack, segment_by_gap, TimingAttackReport, TimingHeuristic,
};
