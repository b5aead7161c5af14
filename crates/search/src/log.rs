//! The server-side query log.
//!
//! The paper's threat model is a *curious* engine that records every
//! query it processes for after-the-fact analysis (Section III-B). Both
//! the single [`crate::SearchEngine`] and the term-sharded
//! [`crate::ShardedEngine`] keep one of these behind one mutex and log
//! each submission whole, so for the same submissions both engines'
//! `query_log()` snapshots are equal field for field.
//!
//! The log is a ring: once `capacity` entries are retained, each push
//! drops the oldest. An entry is not an object: the log is three flat
//! rings — `(text length, token count)` headers, text bytes, token ids —
//! a push extends each and a trim drains each from the front, and
//! neither allocates per entry. Ordinals are dense: every push since the
//! last clear took the next one, so the entry at position `i` of `len`
//! retained has ordinal `next_ordinal − len + i`.
//!
//! An entry is logged either with its raw text (only
//! `search(text)` does) or **from tokens** (every `search_tokens` and
//! `log_tokens` submission). A token entry stores ids only; its text is
//! the canonical rendering of those ids, which needs the engine's
//! vocabulary and is therefore produced when a snapshot is taken
//! ([`QueryLog::snapshot_with`]), not while the query is being served.
//! [`LoggedQuery`] values exist only in snapshots.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use tsearch_text::TermId;

/// One entry of the server-side query log (what the adversary sees).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoggedQuery {
    /// Arrival position in the engine's log: the `n`-th submission since
    /// the log was last cleared has ordinal `n`.
    pub ordinal: u64,
    /// Query text: the raw string as received for a text search
    /// (including out-of-vocabulary words), else the canonical text of
    /// the submitted tokens, in submission order.
    pub text: String,
    /// Analyzed token ids, sorted: the bag the engine evaluated.
    pub tokens: Vec<TermId>,
}

/// `text_len` of an entry logged from tokens: no text bytes are stored.
/// No real string is this long.
const RENDERED: usize = usize::MAX;

/// One entry's place in the rings. Entries lie in the text and token
/// rings in header order, so offsets are running sums of the lengths.
#[derive(Debug, Clone, Copy)]
struct Header {
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

/// A bounded query log with dense ordinals.
///
/// Holds at most `capacity` entries, dropping the oldest first; the
/// ordinal counter survives trimming so ordinals stay unique and
/// monotone until the log is cleared.
#[derive(Debug)]
pub(crate) struct QueryLog {
    headers: VecDeque<Header>,
    text: VecDeque<u8>,
    tokens: VecDeque<TermId>,
    /// Entries pushed since the last clear: the next entry's ordinal.
    next_ordinal: u64,
    capacity: usize,
}

impl QueryLog {
    /// An unbounded log.
    pub(crate) fn new() -> Self {
        QueryLog {
            headers: VecDeque::new(),
            text: VecDeque::new(),
            tokens: VecDeque::new(),
            next_ordinal: 0,
            capacity: usize::MAX,
        }
    }

    /// Records the next entry: with its raw `text` (copied into the
    /// rings), or, for `None`, from its tokens alone, its text rendered
    /// when a snapshot is taken.
    pub(crate) fn push(&mut self, text: Option<&str>, tokens: impl IntoIterator<Item = TermId>) {
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
            text_len,
            token_len: self.tokens.len() - tokens_before,
        });
        self.next_ordinal += 1;
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

    /// Snapshot of the retained entries, oldest first, each entry's
    /// tokens sorted. The text of an entry logged from tokens is
    /// `term(t)` of each of its tokens in submission order, joined by
    /// single spaces.
    pub(crate) fn snapshot_with<'v>(&self, term: impl Fn(TermId) -> &'v str) -> Vec<LoggedQuery> {
        let first = self.next_ordinal - self.headers.len() as u64;
        let (mut text_at, mut token_at) = (0usize, 0usize);
        (first..)
            .zip(&self.headers)
            .map(|(ordinal, header)| {
                let token_end = token_at + header.token_len;
                let mut tokens: Vec<TermId> =
                    self.tokens.range(token_at..token_end).copied().collect();
                token_at = token_end;
                let text = match header.text_len {
                    RENDERED => {
                        let words: Vec<&str> = tokens.iter().map(|&t| term(t)).collect();
                        words.join(" ")
                    }
                    len => {
                        let bytes = self.text.range(text_at..text_at + len).copied().collect();
                        text_at += len;
                        String::from_utf8(bytes).expect("entries enter and leave the ring whole")
                    }
                };
                tokens.sort_unstable();
                LoggedQuery {
                    ordinal,
                    text,
                    tokens,
                }
            })
            .collect()
    }

    /// Clears the entries and restarts ordinals.
    pub(crate) fn clear(&mut self) {
        self.headers.clear();
        self.text.clear();
        self.tokens.clear();
        self.next_ordinal = 0;
    }

    /// Bounds the log to the most recent `capacity` entries (trimming
    /// immediately if already over).
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
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
        PushTokens(Vec<TermId>),
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
        prop_oneof![
            (text(), tokens()).prop_map(|(s, t)| Step::Push(s, t)),
            (text(), tokens()).prop_map(|(s, t)| Step::Push(s, t)),
            tokens().prop_map(Step::PushTokens),
            tokens().prop_map(Step::PushTokens),
            tokens().prop_map(Step::PushTokens),
            (0usize..12).prop_map(Step::SetCapacity),
            Just(Step::SetCapacity(usize::MAX)),
            Just(Step::Clear),
        ]
    }

    /// The log as a plain vector of entries, trimmed from the front.
    #[derive(Default)]
    struct Reference {
        entries: Vec<LoggedQuery>,
        next_ordinal: u64,
        capacity: Option<usize>,
    }

    impl Reference {
        fn record(&mut self, text: Option<String>, mut tokens: Vec<TermId>) {
            let text = text.unwrap_or_else(|| {
                let words: Vec<&str> = tokens.iter().map(|&t| word(t)).collect();
                words.join(" ")
            });
            tokens.sort_unstable();
            self.entries.push(LoggedQuery {
                ordinal: self.next_ordinal,
                text,
                tokens,
            });
            self.next_ordinal += 1;
            self.trim();
        }

        fn trim(&mut self) {
            let over = self
                .entries
                .len()
                .saturating_sub(self.capacity.unwrap_or(usize::MAX));
            self.entries.drain(..over);
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
                        log.push(Some(&text), tokens.iter().copied());
                        reference.record(Some(text), tokens);
                    }
                    Step::PushTokens(tokens) => {
                        log.push(None, tokens.iter().copied());
                        reference.record(None, tokens);
                    }
                    Step::SetCapacity(capacity) => {
                        log.set_capacity(capacity);
                        reference.capacity = Some(capacity);
                        reference.trim();
                    }
                    Step::Clear => {
                        log.clear();
                        reference.entries.clear();
                        reference.next_ordinal = 0;
                    }
                }
                prop_assert_eq!(&log.snapshot_with(word), &reference.entries);
            }
        }
    }

    #[test]
    fn token_entries_render_their_text_at_snapshot() {
        let mut log = QueryLog::new();
        log.push(None, [4, 0, 4]);
        log.push(Some("Stock  MARKET?"), [4]);
        log.push(None, []);
        let entries = log.snapshot_with(word);
        assert_eq!(entries[0].text, "stock apache stock");
        assert_eq!(entries[0].tokens, vec![0, 4, 4]);
        assert_eq!(entries[1].text, "Stock  MARKET?");
        assert_eq!(entries[2].text, "");
        assert!(entries[2].tokens.is_empty());
    }

    fn ordinals(log: &QueryLog) -> Vec<u64> {
        log.snapshot_with(word).iter().map(|e| e.ordinal).collect()
    }

    #[test]
    fn ordinals_are_monotone_across_trimming() {
        let mut log = QueryLog::new();
        log.set_capacity(2);
        for i in 0..5 {
            log.push(Some(&format!("q{i}")), [i]);
        }
        assert_eq!(ordinals(&log), [3, 4]);
        log.push(Some("next"), []);
        assert_eq!(ordinals(&log), [4, 5]);
    }

    #[test]
    fn ring_keeps_the_newest_capacity_entries_oldest_first() {
        let capacity = 8;
        let mut log = QueryLog::new();
        log.set_capacity(capacity);
        for i in 0..10 * capacity {
            log.push(Some(&format!("q{i}")), [i as TermId]);
            assert!(log.headers.len() <= capacity);
        }
        let entries = log.snapshot_with(word);
        assert_eq!(entries.len(), capacity);
        for (entry, i) in entries.iter().zip(9 * capacity..) {
            assert_eq!(entry.ordinal, i as u64);
            assert_eq!(entry.text, format!("q{i}"));
            assert_eq!(entry.tokens, vec![i as TermId]);
        }
    }

    #[test]
    fn clear_restarts() {
        let mut log = QueryLog::new();
        log.push(Some("a"), [1]);
        log.clear();
        assert!(log.snapshot_with(word).is_empty());
        log.push(Some("b"), []);
        assert_eq!(ordinals(&log), [0]);
    }

    #[test]
    fn tightening_capacity_trims() {
        let mut log = QueryLog::new();
        for i in 0..4 {
            log.push(Some(""), [i]);
        }
        log.set_capacity(1);
        assert_eq!(ordinals(&log), [3]);
    }
}
