//! Query representation.
//!
//! The engine treats every query as a bag of words (the paper relies on
//! this to justify shuffling ghost-query terms): a [`Query`] is a multiset
//! of term ids with query-side term frequencies.

use serde::{Deserialize, Serialize};
use tsearch_text::{Analyzer, TermId, Vocabulary};

/// A parsed bag-of-words query.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Query {
    /// Distinct `(term, query_tf)` pairs, term-sorted.
    terms: Vec<(TermId, u32)>,
}

impl Query {
    /// Parses a query from raw text using the shared analyzer and a frozen
    /// vocabulary (out-of-vocabulary terms are dropped, as a real engine
    /// would score them zero anyway).
    pub fn parse(text: &str, analyzer: &Analyzer, vocab: &Vocabulary) -> Self {
        Self::from_tokens(&analyzer.analyze_frozen(text, vocab))
    }

    /// Builds a query from an analyzed token sequence.
    pub fn from_tokens(tokens: &[TermId]) -> Self {
        let mut terms: Vec<(TermId, u32)> = tokens.iter().map(|&t| (t, 1)).collect();
        terms.sort_unstable_by_key(|&(t, _)| t);
        // Fold each run of one term into its first pair.
        terms.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        Query { terms }
    }

    /// Distinct term count.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Whether the query matched no vocabulary terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates `(term, query_tf)` pairs.
    pub fn terms(&self) -> impl Iterator<Item = (TermId, u32)> + '_ {
        self.terms.iter().copied()
    }

    /// The `(term, query_tf)` pairs as one term-sorted slice: the key a
    /// batch walk orders and shares prefixes by.
    pub fn pairs(&self) -> &[(TermId, u32)] {
        &self.terms
    }

    /// The distinct term ids.
    pub fn term_ids(&self) -> Vec<TermId> {
        self.terms.iter().map(|&(t, _)| t).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsearch_text::Analyzer;

    #[test]
    fn from_tokens_deduplicates() {
        let q = Query::from_tokens(&[5, 2, 5, 5, 9]);
        assert_eq!(q.num_terms(), 3);
        let terms: Vec<_> = q.terms().collect();
        assert_eq!(terms, vec![(2, 1), (5, 3), (9, 1)]);
    }

    #[test]
    fn parse_drops_out_of_vocab() {
        let analyzer = Analyzer::new();
        let mut vocab = Vocabulary::new();
        let apache = vocab.intern("apache");
        let q = Query::parse("the apache submarine", &analyzer, &vocab);
        assert_eq!(q.term_ids(), vec![apache]);
    }

    #[test]
    fn empty_query() {
        let q = Query::from_tokens(&[]);
        assert!(q.is_empty());
        assert_eq!(q.num_terms(), 0);
    }
}
