//! Relevance scoring models.
//!
//! The paper's engine uses the classical vector space model; we provide
//! TF-IDF cosine (lnc.ltc) as the default and Okapi BM25 as an alternative,
//! both over the same inverted index.

use serde::{Deserialize, Serialize};

/// Scoring model selection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum ScoringModel {
    /// TF-IDF with log tf weighting and cosine normalization (lnc.ltc).
    #[default]
    TfIdfCosine,
    /// Okapi BM25 with the given parameters.
    Bm25 {
        /// Term-frequency saturation (typical 1.2).
        k1: f64,
        /// Length normalization (typical 0.75).
        b: f64,
    },
}

impl ScoringModel {
    /// Default BM25 parameters.
    pub fn bm25_default() -> Self {
        ScoringModel::Bm25 { k1: 1.2, b: 0.75 }
    }

    /// Document-side term weight before normalization.
    pub fn doc_weight(&self, tf: u32, doc_len: u32, avg_doc_len: f64) -> f64 {
        debug_assert!(tf > 0);
        match *self {
            ScoringModel::TfIdfCosine => 1.0 + (tf as f64).ln(),
            ScoringModel::Bm25 { k1, b } => {
                let tf = tf as f64;
                let norm = 1.0 - b + b * (doc_len as f64 / avg_doc_len.max(1e-9));
                tf * (k1 + 1.0) / (tf + k1 * norm)
            }
        }
    }

    /// Whether [`ScoringModel::doc_weight`] reads the document's length
    /// (BM25) or depends on `tf` alone (TF-IDF).
    pub fn doc_weight_reads_doc_len(&self) -> bool {
        matches!(self, ScoringModel::Bm25 { .. })
    }

    /// Query-side term weight.
    pub fn query_weight(&self, query_tf: u32, idf: f64) -> f64 {
        match *self {
            ScoringModel::TfIdfCosine => (1.0 + (query_tf as f64).ln()) * idf,
            // BM25 folds idf into the query side and ignores query tf
            // saturation for short queries.
            ScoringModel::Bm25 { .. } => query_tf as f64 * idf,
        }
    }

    /// Whether document scores must be divided by the document's vector
    /// norm (cosine normalization).
    pub fn needs_cosine_norm(&self) -> bool {
        matches!(self, ScoringModel::TfIdfCosine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tfidf_doc_weight_is_sublinear() {
        let m = ScoringModel::TfIdfCosine;
        let w1 = m.doc_weight(1, 100, 100.0);
        let w10 = m.doc_weight(10, 100, 100.0);
        let w19 = m.doc_weight(19, 100, 100.0);
        assert!(w10 > w1);
        assert!(w19 - w10 < w10 - w1, "log growth is concave in tf");
    }

    #[test]
    fn bm25_saturates() {
        let m = ScoringModel::bm25_default();
        let w1 = m.doc_weight(1, 100, 100.0);
        let w50 = m.doc_weight(50, 100, 100.0);
        let w500 = m.doc_weight(500, 100, 100.0);
        assert!(w50 > w1);
        assert!(w500 < 2.2 * 1.01, "bm25 bounded by k1+1");
        assert!(w500 - w50 < 0.2, "saturation");
    }

    #[test]
    fn bm25_penalizes_long_docs() {
        let m = ScoringModel::bm25_default();
        let short = m.doc_weight(3, 50, 100.0);
        let long = m.doc_weight(3, 400, 100.0);
        assert!(short > long);
    }

    #[test]
    fn query_weight_scales_with_idf() {
        for m in [ScoringModel::TfIdfCosine, ScoringModel::bm25_default()] {
            assert!(m.query_weight(1, 3.0) > m.query_weight(1, 1.0));
        }
    }

    #[test]
    fn norm_flag() {
        assert!(ScoringModel::TfIdfCosine.needs_cosine_norm());
        assert!(!ScoringModel::bm25_default().needs_cosine_norm());
    }
}
