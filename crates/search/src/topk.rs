//! Bounded top-k selection for scored documents.
//!
//! `k` is whatever the client asked for — on the wire, any `u64` — so it
//! bounds how many hits are *kept*, never how much memory is reserved up
//! front: a collector starts with room for at most `EAGER_RESERVE` hits
//! and grows only as hits actually arrive.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scored document hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// Document id.
    pub doc_id: u32,
    /// Relevance score (higher is better).
    pub score: f64,
}

impl Eq for SearchHit {}

impl Ord for SearchHit {
    fn cmp(&self, other: &Self) -> Ordering {
        // Order by score, ties broken by doc id (lower id first) so results
        // are fully deterministic.
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then(self.doc_id.cmp(&other.doc_id))
            .reverse()
    }
}

impl PartialOrd for SearchHit {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The most heap slots [`TopK::new`] reserves before any hit is offered.
const EAGER_RESERVE: usize = 1024;

/// Collects the k best hits seen, in O(log k) per insertion.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    // Min-heap of the current best k: the root is the worst kept hit.
    heap: BinaryHeap<std::cmp::Reverse<SearchHit>>,
}

impl TopK {
    /// Creates a collector for the best `k` hits. Any `k` is accepted;
    /// one beyond the number of hits offered simply keeps them all.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k.saturating_add(1).min(EAGER_RESERVE)),
        }
    }

    /// Offers a hit; it is kept only if it beats the current k-th best.
    pub fn push(&mut self, hit: SearchHit) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(std::cmp::Reverse(hit));
        } else if let Some(worst) = self.heap.peek() {
            if hit > worst.0 {
                self.heap.pop();
                self.heap.push(std::cmp::Reverse(hit));
            }
        }
    }

    /// The worst kept score once `k` hits are kept, `None` before.
    pub(crate) fn worst(&self) -> Option<f64> {
        let full = self.heap.len() == self.k;
        self.heap.peek().filter(|_| full).map(|worst| worst.0.score)
    }

    /// Current number of kept hits.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no hits are kept.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Finalizes into a best-first sorted vector.
    pub fn into_sorted(self) -> Vec<SearchHit> {
        let mut hits: Vec<SearchHit> = self.heap.into_iter().map(|r| r.0).collect();
        hits.sort_by(|a, b| b.cmp(a));
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_best_k() {
        let mut topk = TopK::new(3);
        for (doc_id, score) in [(0, 0.5), (1, 0.9), (2, 0.1), (3, 0.7), (4, 0.8)] {
            topk.push(SearchHit { doc_id, score });
        }
        let hits = topk.into_sorted();
        let ids: Vec<u32> = hits.iter().map(|h| h.doc_id).collect();
        assert_eq!(ids, vec![1, 4, 3]);
    }

    #[test]
    fn ties_break_by_doc_id() {
        let mut topk = TopK::new(2);
        for doc_id in [5, 2, 9] {
            topk.push(SearchHit { doc_id, score: 1.0 });
        }
        let ids: Vec<u32> = topk.into_sorted().iter().map(|h| h.doc_id).collect();
        assert_eq!(ids, vec![2, 5]);
    }

    #[test]
    fn zero_k() {
        let mut topk = TopK::new(0);
        topk.push(SearchHit {
            doc_id: 0,
            score: 1.0,
        });
        assert!(topk.is_empty());
        assert!(topk.into_sorted().is_empty());
    }

    #[test]
    fn any_k_is_accepted_without_reserving_for_it() {
        let mut topk = TopK::new(usize::MAX);
        for doc_id in 0..3 * EAGER_RESERVE as u32 {
            topk.push(SearchHit {
                doc_id,
                score: f64::from(doc_id % 7),
            });
        }
        let hits = topk.into_sorted();
        assert_eq!(hits.len(), 3 * EAGER_RESERVE, "a huge k keeps every hit");
        assert!(hits.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn fewer_hits_than_k() {
        let mut topk = TopK::new(10);
        topk.push(SearchHit {
            doc_id: 3,
            score: 0.2,
        });
        assert_eq!(topk.len(), 1);
        assert_eq!(topk.into_sorted().len(), 1);
    }
}
