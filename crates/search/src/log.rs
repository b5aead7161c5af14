//! The server-side query log.
//!
//! The paper's threat model is a *curious* engine that records every
//! query it processes for after-the-fact analysis (Section III-B). Both
//! the single [`crate::SearchEngine`] and the term-sharded
//! [`crate::ShardedEngine`] expose their adversary view through this
//! structure; the sharded engine keeps one independently locked log per
//! shard (each shard sees only the sub-query routed to it) with ordinals
//! drawn from one atomic counter, so a global arrival order can be
//! reconstructed without any engine-wide lock.
//!
//! The log is a ring: once `capacity` entries are retained, each push
//! drops the oldest in O(1). Every submission pushes under the engine's
//! log mutex, so the trim must not cost O(capacity).

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use tsearch_text::TermId;

/// One entry of the server-side query log (what the adversary sees).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoggedQuery {
    /// Arrival position in the log. Within a sharded engine, ordinals are
    /// global: entries with the same ordinal on different shards are the
    /// per-shard slices of one client submission.
    pub ordinal: u64,
    /// Query text. The single engine logs the raw string as received
    /// (including out-of-vocabulary words); a shard never receives raw
    /// text — the router hands it only its terms — so sharded entries
    /// carry the canonical text of the shard's token slice instead.
    pub text: String,
    /// Analyzed token ids (a shard sees only the terms it owns).
    pub tokens: Vec<TermId>,
}

/// A bounded, ordinal-stamped query log.
///
/// Holds at most `capacity` entries, dropping the oldest first; the
/// ordinal counter survives trimming so ordinals stay unique and
/// monotone for the life of the engine.
#[derive(Debug)]
pub struct QueryLog {
    entries: VecDeque<LoggedQuery>,
    next_ordinal: u64,
    capacity: usize,
}

impl Default for QueryLog {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryLog {
    /// An unbounded log.
    pub fn new() -> Self {
        QueryLog {
            entries: VecDeque::new(),
            next_ordinal: 0,
            capacity: usize::MAX,
        }
    }

    /// Records an entry, assigning the next internal ordinal.
    pub fn push(&mut self, text: String, tokens: Vec<TermId>) -> u64 {
        let ordinal = self.next_ordinal;
        self.next_ordinal += 1;
        self.push_at(ordinal, text, tokens);
        ordinal
    }

    /// Records an entry under an externally assigned ordinal (the sharded
    /// engine draws ordinals from one atomic counter shared by all shard
    /// logs). Keeps the internal counter ahead of every seen ordinal so
    /// mixing both push styles cannot duplicate ordinals.
    pub fn push_at(&mut self, ordinal: u64, text: String, tokens: Vec<TermId>) {
        self.next_ordinal = self.next_ordinal.max(ordinal + 1);
        self.entries.push_back(LoggedQuery {
            ordinal,
            text,
            tokens,
        });
        self.trim();
    }

    /// Drops the oldest entries until at most `capacity` remain.
    fn trim(&mut self) {
        while self.entries.len() > self.capacity {
            self.entries.pop_front();
        }
    }

    /// Snapshot of the retained entries, oldest first.
    pub fn snapshot(&self) -> Vec<LoggedQuery> {
        self.entries.iter().cloned().collect()
    }

    /// Retained entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Clears the entries and restarts ordinals.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.next_ordinal = 0;
    }

    /// Bounds the log to the most recent `capacity` entries (trimming
    /// immediately if already over).
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.trim();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordinals_are_monotone_across_trimming() {
        let mut log = QueryLog::new();
        log.set_capacity(2);
        for i in 0..5 {
            log.push(format!("q{i}"), vec![i as TermId]);
        }
        let entries = log.snapshot();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].ordinal, 3);
        assert_eq!(entries[1].ordinal, 4);
        assert_eq!(log.push("next".into(), vec![]), 5);
    }

    #[test]
    fn ring_keeps_the_newest_capacity_entries_oldest_first() {
        let capacity = 8;
        let mut log = QueryLog::new();
        log.set_capacity(capacity);
        for i in 0..10 * capacity {
            log.push(format!("q{i}"), vec![i as TermId]);
            assert!(log.len() <= capacity);
        }
        let entries = log.snapshot();
        assert_eq!(entries.len(), capacity);
        for (entry, i) in entries.iter().zip(9 * capacity..) {
            assert_eq!(entry.ordinal, i as u64);
            assert_eq!(entry.text, format!("q{i}"));
            assert_eq!(entry.tokens, vec![i as TermId]);
        }
    }

    #[test]
    fn push_at_keeps_counter_ahead() {
        let mut log = QueryLog::new();
        log.push_at(10, "a".into(), vec![]);
        assert_eq!(log.push("b".into(), vec![]), 11);
    }

    #[test]
    fn clear_restarts() {
        let mut log = QueryLog::new();
        log.push("a".into(), vec![1]);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.push("b".into(), vec![]), 0);
    }

    #[test]
    fn tightening_capacity_trims() {
        let mut log = QueryLog::new();
        for i in 0..4 {
            log.push(String::new(), vec![i]);
        }
        log.set_capacity(1);
        assert_eq!(log.len(), 1);
        assert_eq!(log.snapshot()[0].ordinal, 3);
    }
}
