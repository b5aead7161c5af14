//! Result-list comparison.

use crate::topk::SearchHit;

/// Whether two ranked lists are identical (ids and order). The TopPriv
/// usability invariant is that filtered-cycle results equal solo-query
/// results exactly.
pub fn result_lists_identical(a: &[SearchHit], b: &[SearchHit]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.doc_id == y.doc_id && (x.score - y.score).abs() < 1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits(ids: &[u32]) -> Vec<SearchHit> {
        ids.iter()
            .enumerate()
            .map(|(i, &doc_id)| SearchHit {
                doc_id,
                score: 1.0 - i as f64 * 0.1,
            })
            .collect()
    }

    #[test]
    fn identical_lists() {
        let a = hits(&[1, 2]);
        let b = hits(&[1, 2]);
        let c = hits(&[2, 1]);
        assert!(result_lists_identical(&a, &b));
        assert!(!result_lists_identical(&a, &c));
        assert!(!result_lists_identical(&a, &hits(&[1])));
    }
}
