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
//! drops the oldest. Every submission pushes under the engine's log
//! mutex on the thread that scores it, so an entry is not an object: the
//! log is three flat rings — `(ordinal, text length, token count)`
//! headers, text bytes, token ids — a push extends each and a trim drains
//! each from the front, and neither allocates per entry.
//!
//! An entry is logged either with its raw text
//! ([`QueryLog::push`], which only `SearchEngine::search(text)` uses) or
//! **from tokens** ([`QueryLog::push_tokens`]: every `search_tokens`,
//! every shard slice). A token entry stores ids only; its text is the
//! canonical rendering of those ids, which needs the engine's vocabulary
//! and is therefore produced when a snapshot is taken
//! ([`QueryLog::snapshot_with`]), not while the query is being served.
//! [`LoggedQuery`] values exist only in snapshots.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use tsearch_text::TermId;

/// One entry of the server-side query log (what the adversary sees).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoggedQuery {
    /// Arrival position in the log. Within a sharded engine, ordinals are
    /// global: entries with the same ordinal on different shards are the
    /// per-shard slices of one client submission.
    pub ordinal: u64,
    /// Query text. The single engine logs the raw string as received
    /// (including out-of-vocabulary words); a shard never receives raw
    /// text — the router hands it only its terms — so sharded entries
    /// carry the canonical text of the shard's token slice instead, as
    /// does every entry submitted as tokens.
    pub text: String,
    /// Analyzed token ids (a shard sees only the terms it owns).
    pub tokens: Vec<TermId>,
}

/// `text_len` of an entry logged from tokens: no text bytes are stored.
/// No real string is this long.
const RENDERED: usize = usize::MAX;

/// One entry's place in the rings. Entries lie in the text and token
/// rings in header order, so offsets are running sums of the lengths.
#[derive(Debug, Clone, Copy)]
struct Header {
    ordinal: u64,
    /// Stored text bytes, or [`RENDERED`].
    text_len: usize,
    token_len: usize,
}

impl Header {
    fn stored_text_len(&self) -> usize {
        match self.text_len {
            RENDERED => 0,
            len => len,
        }
    }
}

/// A bounded, ordinal-stamped query log.
///
/// Holds at most `capacity` entries, dropping the oldest first; the
/// ordinal counter survives trimming so ordinals stay unique and
/// monotone for the life of the engine.
#[derive(Debug, Clone)]
pub struct QueryLog {
    headers: VecDeque<Header>,
    text: VecDeque<u8>,
    tokens: VecDeque<TermId>,
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
            headers: VecDeque::new(),
            text: VecDeque::new(),
            tokens: VecDeque::new(),
            next_ordinal: 0,
            capacity: usize::MAX,
        }
    }

    /// Records an entry with its raw text (copied into the rings),
    /// assigning the next internal ordinal.
    pub fn push(&mut self, text: String, tokens: Vec<TermId>) -> u64 {
        let ordinal = self.take_ordinal();
        self.push_at(ordinal, text, tokens);
        ordinal
    }

    /// Records a raw-text entry under an externally assigned ordinal (see
    /// [`QueryLog::push_tokens_at`] for how ordinals mix).
    pub fn push_at(&mut self, ordinal: u64, text: String, tokens: Vec<TermId>) {
        self.append(ordinal, Some(&text), tokens);
    }

    /// Records an entry from its tokens alone, assigning the next internal
    /// ordinal. Its text is rendered when a snapshot is taken.
    pub fn push_tokens(&mut self, tokens: impl IntoIterator<Item = TermId>) -> u64 {
        let ordinal = self.take_ordinal();
        self.push_tokens_at(ordinal, tokens);
        ordinal
    }

    /// Records a token entry under an externally assigned ordinal (the
    /// sharded engine draws ordinals from one atomic counter shared by all
    /// shard logs). Keeps the internal counter ahead of every seen ordinal
    /// so mixing both push styles cannot duplicate ordinals.
    pub fn push_tokens_at(&mut self, ordinal: u64, tokens: impl IntoIterator<Item = TermId>) {
        self.append(ordinal, None, tokens);
    }

    fn take_ordinal(&mut self) -> u64 {
        let ordinal = self.next_ordinal;
        self.next_ordinal += 1;
        ordinal
    }

    fn append(
        &mut self,
        ordinal: u64,
        text: Option<&str>,
        tokens: impl IntoIterator<Item = TermId>,
    ) {
        self.next_ordinal = self.next_ordinal.max(ordinal + 1);
        let text_len = match text {
            None => RENDERED,
            Some(text) => {
                self.text.extend(text.as_bytes());
                text.len()
            }
        };
        let tokens_before = self.tokens.len();
        self.tokens.extend(tokens);
        self.headers.push_back(Header {
            ordinal,
            text_len,
            token_len: self.tokens.len() - tokens_before,
        });
        self.trim();
    }

    /// Drops the oldest entries until at most `capacity` remain.
    fn trim(&mut self) {
        while self.headers.len() > self.capacity {
            let Some(oldest) = self.headers.pop_front() else {
                break;
            };
            self.text.drain(..oldest.stored_text_len());
            self.tokens.drain(..oldest.token_len);
        }
    }

    /// Snapshot of the retained entries, oldest first. The text of an
    /// entry logged from tokens is `term(t)` of each of its tokens, joined
    /// by single spaces.
    pub fn snapshot_with<'v>(&self, term: impl Fn(TermId) -> &'v str) -> Vec<LoggedQuery> {
        self.entries(|tokens| {
            let words: Vec<&str> = tokens.iter().map(|&t| term(t)).collect();
            words.join(" ")
        })
    }

    /// Snapshot without a vocabulary: entries logged from tokens come
    /// back with empty text.
    pub fn snapshot(&self) -> Vec<LoggedQuery> {
        self.entries(|_| String::new())
    }

    fn entries(&self, render: impl Fn(&[TermId]) -> String) -> Vec<LoggedQuery> {
        let (mut text_at, mut token_at) = (0usize, 0usize);
        self.headers
            .iter()
            .map(|header| {
                let token_end = token_at + header.token_len;
                let tokens: Vec<TermId> = self.tokens.range(token_at..token_end).copied().collect();
                token_at = token_end;
                let text = match header.text_len {
                    RENDERED => render(&tokens),
                    len => {
                        let bytes = self.text.range(text_at..text_at + len).copied().collect();
                        text_at += len;
                        String::from_utf8(bytes).expect("entries enter and leave the ring whole")
                    }
                };
                LoggedQuery {
                    ordinal: header.ordinal,
                    text,
                    tokens,
                }
            })
            .collect()
    }

    /// Retained entry count.
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// Whether the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    /// Clears the entries and restarts ordinals.
    pub fn clear(&mut self) {
        self.headers.clear();
        self.text.clear();
        self.tokens.clear();
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
    use proptest::prelude::*;

    const WORDS: [&str; 6] = ["apache", "helicopter", "", "café", "stock", "日本"];

    fn word(t: TermId) -> &'static str {
        WORDS[t as usize % WORDS.len()]
    }

    #[derive(Debug, Clone)]
    enum Step {
        Push(String, Vec<TermId>),
        PushAt(u64, String, Vec<TermId>),
        PushTokens(Vec<TermId>),
        PushTokensAt(u64, Vec<TermId>),
        SetCapacity(usize),
        Clear,
    }

    fn step() -> impl Strategy<Value = Step> {
        let tokens = || collection::vec(0u32..40, 0..6);
        let text = || {
            prop_oneof![
                Just(String::new()),
                Just("Apache  helicopters!".to_string()),
                Just("naïve café 日本".to_string()),
                (0u32..1000).prop_map(|i| format!("q{i}")),
            ]
        };
        // Ordinals behind, at and ahead of the internal counter.
        let ordinal = || 0u64..60;
        prop_oneof![
            (text(), tokens()).prop_map(|(s, t)| Step::Push(s, t)),
            (text(), tokens()).prop_map(|(s, t)| Step::Push(s, t)),
            tokens().prop_map(Step::PushTokens),
            tokens().prop_map(Step::PushTokens),
            tokens().prop_map(Step::PushTokens),
            (ordinal(), text(), tokens()).prop_map(|(o, s, t)| Step::PushAt(o, s, t)),
            (ordinal(), tokens()).prop_map(|(o, t)| Step::PushTokensAt(o, t)),
            (0usize..12).prop_map(Step::SetCapacity),
            Just(Step::SetCapacity(usize::MAX)),
            Just(Step::Clear),
        ]
    }

    /// The log as a plain vector of entries, trimmed from the front.
    #[derive(Default)]
    struct Reference {
        entries: Vec<LoggedQuery>,
        /// Which entries were logged from tokens.
        rendered: Vec<bool>,
        next_ordinal: u64,
        capacity: Option<usize>,
    }

    impl Reference {
        fn record(&mut self, ordinal: u64, text: Option<String>, tokens: Vec<TermId>) {
            self.next_ordinal = self.next_ordinal.max(ordinal + 1);
            self.rendered.push(text.is_none());
            let text = text.unwrap_or_else(|| {
                let words: Vec<&str> = tokens.iter().map(|&t| word(t)).collect();
                words.join(" ")
            });
            self.entries.push(LoggedQuery {
                ordinal,
                text,
                tokens,
            });
            self.trim();
        }

        fn trim(&mut self) {
            let over = self
                .entries
                .len()
                .saturating_sub(self.capacity.unwrap_or(usize::MAX));
            self.entries.drain(..over);
            self.rendered.drain(..over);
        }
    }

    proptest! {
        #[test]
        fn flat_rings_behave_like_a_vector_of_entries(steps in collection::vec(step(), 0..60)) {
            let mut log = QueryLog::new();
            let mut reference = Reference::default();
            for step in steps {
                match step {
                    Step::Push(text, tokens) => {
                        let ordinal = log.push(text.clone(), tokens.clone());
                        prop_assert_eq!(ordinal, reference.next_ordinal);
                        reference.record(ordinal, Some(text), tokens);
                    }
                    Step::PushAt(ordinal, text, tokens) => {
                        log.push_at(ordinal, text.clone(), tokens.clone());
                        reference.record(ordinal, Some(text), tokens);
                    }
                    Step::PushTokens(tokens) => {
                        let ordinal = log.push_tokens(tokens.iter().copied());
                        prop_assert_eq!(ordinal, reference.next_ordinal);
                        reference.record(ordinal, None, tokens);
                    }
                    Step::PushTokensAt(ordinal, tokens) => {
                        log.push_tokens_at(ordinal, tokens.iter().copied());
                        reference.record(ordinal, None, tokens);
                    }
                    Step::SetCapacity(capacity) => {
                        log.set_capacity(capacity);
                        reference.capacity = Some(capacity);
                        reference.trim();
                    }
                    Step::Clear => {
                        log.clear();
                        reference.entries.clear();
                        reference.rendered.clear();
                        reference.next_ordinal = 0;
                    }
                }
                prop_assert_eq!(log.len(), reference.entries.len());
                prop_assert_eq!(log.is_empty(), reference.entries.is_empty());
                prop_assert_eq!(&log.snapshot_with(word), &reference.entries);
                // Without a vocabulary only the token entries lose their text.
                let mut bare = reference.entries.clone();
                for (entry, &rendered) in bare.iter_mut().zip(&reference.rendered) {
                    if rendered {
                        entry.text.clear();
                    }
                }
                prop_assert_eq!(log.snapshot(), bare);
                prop_assert_eq!(log.clone().push_tokens([]), reference.next_ordinal);
            }
        }
    }

    #[test]
    fn token_entries_render_their_text_at_snapshot() {
        let mut log = QueryLog::new();
        log.push_tokens([4, 0, 4]);
        log.push("Stock  MARKET?".into(), vec![4]);
        log.push_tokens([]);
        let entries = log.snapshot_with(word);
        assert_eq!(entries[0].text, "stock apache stock");
        assert_eq!(entries[0].tokens, vec![4, 0, 4]);
        assert_eq!(entries[1].text, "Stock  MARKET?");
        assert_eq!(entries[2].text, "");
        assert!(entries[2].tokens.is_empty());
    }

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
