//! Compact binary serialization of the inverted index.
//!
//! The engine's index is rebuilt from the corpus today, but a real
//! enterprise deployment persists it — and Figure 6 compares exactly
//! this artifact's on-disk footprint against the client's LDA model. The
//! codec stores the already-compressed postings verbatim (delta+varint
//! bytes), so encoded size ≈ in-memory size and the Figure 6 accounting
//! holds on disk too.
//!
//! Layout: magic, version, counts, doc lengths, max-tf table, then one
//! `(len, byte_len, bytes)` record per term. Integrity (checksums, torn
//! writes) is layered above by `tsearch-store`; this codec only concerns
//! itself with structure: a blob decodes only if every posting names a
//! document the index has, so scoring one never indexes past its tables.

use crate::index::InvertedIndex;
use crate::postings::PostingsList;
use bytes::{Buf, BufMut};

const MAGIC: &[u8; 4] = b"TIDX";
const VERSION: u32 = 1;

/// Index codec failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexCodecError {
    /// Input is not a TIDX blob.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// Input ended early or sizes are inconsistent.
    Truncated,
    /// A term's postings name a document the index does not have.
    DocOutOfRange {
        /// The term whose list holds the posting.
        term: u32,
        /// The posting's document id.
        doc_id: u32,
        /// The index's document count.
        num_docs: u32,
    },
}

impl std::fmt::Display for IndexCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexCodecError::BadMagic => write!(f, "not a TIDX index blob"),
            IndexCodecError::BadVersion(v) => write!(f, "unsupported TIDX version {v}"),
            IndexCodecError::Truncated => write!(f, "TIDX blob truncated"),
            IndexCodecError::DocOutOfRange {
                term,
                doc_id,
                num_docs,
            } => write!(
                f,
                "TIDX term {term} has a posting for document {doc_id} of {num_docs}"
            ),
        }
    }
}

impl std::error::Error for IndexCodecError {}

/// Serializes an index to bytes.
pub fn encode_index(index: &InvertedIndex) -> Vec<u8> {
    let num_docs = index.num_docs();
    let num_terms = index.num_terms();
    let mut out =
        Vec::with_capacity(32 + num_docs * 4 + num_terms * 12 + index.size_breakdown().total());
    out.put_slice(MAGIC);
    out.put_u32_le(VERSION);
    out.put_u32_le(num_docs as u32);
    out.put_u32_le(num_terms as u32);
    out.put_u64_le(index.total_tokens());
    for d in 0..num_docs {
        out.put_u32_le(index.doc_len(d as u32));
    }
    for t in 0..num_terms {
        out.put_u32_le(index.max_tf(t as u32));
    }
    for t in 0..num_terms {
        let list = index.postings(t as u32);
        let (len, bytes) = list.raw_parts();
        out.put_u32_le(len);
        out.put_u32_le(bytes.len() as u32);
        out.put_slice(bytes);
    }
    out
}

/// Deserializes an index from bytes.
pub fn decode_index(mut bytes: &[u8]) -> Result<InvertedIndex, IndexCodecError> {
    if bytes.remaining() < 24 {
        return Err(IndexCodecError::Truncated);
    }
    let mut magic = [0u8; 4];
    bytes.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(IndexCodecError::BadMagic);
    }
    let version = bytes.get_u32_le();
    if version != VERSION {
        return Err(IndexCodecError::BadVersion(version));
    }
    let num_docs = bytes.get_u32_le() as usize;
    let num_terms = bytes.get_u32_le() as usize;
    let total_tokens = bytes.get_u64_le();
    if bytes.remaining() < num_docs * 4 {
        return Err(IndexCodecError::Truncated);
    }
    let doc_lens: Vec<u32> = (0..num_docs).map(|_| bytes.get_u32_le()).collect();
    if bytes.remaining() < num_terms * 4 {
        return Err(IndexCodecError::Truncated);
    }
    let max_tfs: Vec<u32> = (0..num_terms).map(|_| bytes.get_u32_le()).collect();
    let mut postings = Vec::with_capacity(num_terms);
    for term in 0..num_terms as u32 {
        if bytes.remaining() < 8 {
            return Err(IndexCodecError::Truncated);
        }
        let len = bytes.get_u32_le();
        let byte_len = bytes.get_u32_le() as usize;
        if bytes.remaining() < byte_len {
            return Err(IndexCodecError::Truncated);
        }
        let raw = bytes[..byte_len].to_vec();
        bytes.advance(byte_len);
        let list = PostingsList::from_raw_parts(len, raw).ok_or(IndexCodecError::Truncated)?;
        // Doc ids in a valid list strictly increase: the last is the largest.
        if let Some(last) = list.iter().last() {
            if last.doc_id as usize >= num_docs {
                return Err(IndexCodecError::DocOutOfRange {
                    term,
                    doc_id: last.doc_id,
                    num_docs: num_docs as u32,
                });
            }
        }
        postings.push(list);
    }
    Ok(InvertedIndex::from_parts(
        postings,
        doc_lens,
        total_tokens,
        max_tfs,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::InvertedIndex;

    fn sample_index() -> InvertedIndex {
        let docs: Vec<Vec<u32>> =
            vec![vec![0, 1, 1, 2], vec![2, 2, 3], vec![0, 4, 4, 4, 1], vec![]];
        let refs: Vec<&[u32]> = docs.iter().map(|d| d.as_slice()).collect();
        InvertedIndex::build(&refs, 6)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let index = sample_index();
        let blob = encode_index(&index);
        let back = decode_index(&blob).unwrap();
        assert_eq!(back.num_docs(), index.num_docs());
        assert_eq!(back.num_terms(), index.num_terms());
        assert_eq!(back.total_tokens(), index.total_tokens());
        for t in 0..index.num_terms() as u32 {
            assert_eq!(back.postings_vec(t), index.postings_vec(t), "term {t}");
            assert_eq!(back.max_tf(t), index.max_tf(t));
            assert_eq!(back.doc_freq(t), index.doc_freq(t));
        }
        for d in 0..index.num_docs() as u32 {
            assert_eq!(back.doc_len(d), index.doc_len(d));
        }
        assert!((back.avg_doc_len() - index.avg_doc_len()).abs() < 1e-12);
    }

    #[test]
    fn empty_index_roundtrips() {
        let index = InvertedIndex::build(&[], 0);
        let back = decode_index(&encode_index(&index)).unwrap();
        assert_eq!(back.num_docs(), 0);
        assert_eq!(back.num_terms(), 0);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            decode_index(b"nope").unwrap_err(),
            IndexCodecError::Truncated
        );
        assert_eq!(
            decode_index(b"XXXXxxxxxxxxxxxxxxxxxxxxxxxx").unwrap_err(),
            IndexCodecError::BadMagic
        );
    }

    #[test]
    fn rejects_future_version() {
        let mut blob = encode_index(&sample_index());
        blob[4] = 42;
        assert_eq!(
            decode_index(&blob).unwrap_err(),
            IndexCodecError::BadVersion(42)
        );
    }

    #[test]
    fn detects_truncation_at_every_section() {
        let blob = encode_index(&sample_index());
        // Cut in the header, the doc-lens table, and the postings region.
        for cut in [10, 20, blob.len() - 2] {
            assert_eq!(
                decode_index(&blob[..cut]).unwrap_err(),
                IndexCodecError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn encoded_size_close_to_memory_size() {
        let index = sample_index();
        let blob = encode_index(&index);
        let mem = index.size_breakdown().total();
        // Fixed tables dominate at toy scale; the invariant that matters
        // is no blow-up (e.g. no decimal text expansion).
        assert!(blob.len() <= mem + 64 + index.num_terms() * 8 + index.num_docs() * 4);
    }
}
