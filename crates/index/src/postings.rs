//! Compressed postings lists.
//!
//! Each term's postings are a sequence of `(doc_id, term_frequency)` pairs,
//! doc-id sorted, stored as delta + varint encoded bytes. This matches the
//! `<p_ij, d_j>` pairs of the paper's inverted lists, and the encoded byte
//! size is what Figure 6 accounts as "inverted index size".
//!
//! Decoding is the inner loop of every evaluation, and nearly every pair
//! is two single-byte varints (a gap under 128 to the previous document,
//! a term frequency under 129). [`PostingsIter`] reads such a pair
//! straight off the slice and hands everything else — continuation
//! bytes, truncation, overflow — to [`crate::varint::decode_u32`], the
//! one decoder that understands them; a pair whose doc id or tf would
//! leave `u32` ends the list like any other malformed tail. The shortcut sits inside `next()`
//! so every reader gets it; [`PostingsList::from_raw_parts`] still walks
//! untrusted bytes through that same `next()` before a list exists.

use crate::varint::{decode_u32, encode_u32};
use serde::{Deserialize, Serialize};

/// One posting: a document id and the term's frequency in that document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Posting {
    /// Document id.
    pub doc_id: u32,
    /// Term frequency in the document.
    pub tf: u32,
}

/// An immutable, compressed postings list.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PostingsList {
    /// Number of postings (the term's document frequency).
    len: u32,
    /// Delta+varint encoded `(doc_gap, tf)` pairs.
    bytes: Vec<u8>,
}

impl PostingsList {
    /// Builds a postings list from doc-id-sorted postings.
    ///
    /// # Panics
    /// Panics if doc ids are not strictly increasing or a tf is zero.
    pub fn from_postings(postings: &[Posting]) -> Self {
        let mut bytes = Vec::with_capacity(postings.len() * 2);
        let mut prev: Option<u32> = None;
        for p in postings {
            assert!(p.tf > 0, "term frequency must be positive");
            let gap = match prev {
                None => p.doc_id,
                Some(prev_id) => {
                    assert!(p.doc_id > prev_id, "doc ids must be strictly increasing");
                    p.doc_id - prev_id - 1
                }
            };
            encode_u32(&mut bytes, gap);
            encode_u32(&mut bytes, p.tf - 1);
            prev = Some(p.doc_id);
        }
        PostingsList {
            len: postings.len() as u32,
            bytes,
        }
    }

    /// Number of postings (document frequency of the term).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Encoded size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Iterates over the postings, decoding lazily.
    pub fn iter(&self) -> PostingsIter<'_> {
        PostingsIter {
            remaining: self.len,
            cursor: self.bytes.as_slice(),
            prev: None,
        }
    }

    /// Decodes all postings into a vector (mostly for tests and scoring
    /// paths that want a slice).
    pub fn to_vec(&self) -> Vec<Posting> {
        self.iter().collect()
    }

    /// The raw encoded representation `(len, encoded bytes)` — consumed
    /// by the index serializer, which stores the compressed bytes
    /// verbatim.
    pub fn raw_parts(&self) -> (u32, &[u8]) {
        (self.len, &self.bytes)
    }

    /// Rebuilds a list from its raw representation, validating that the
    /// bytes decode to exactly `len` postings and are fully consumed.
    /// Returns `None` for malformed input (truncated varints, a doc id or
    /// tf past `u32`, wrong count, trailing bytes).
    pub fn from_raw_parts(len: u32, bytes: Vec<u8>) -> Option<Self> {
        let candidate = PostingsList { len, bytes };
        let mut iter = candidate.iter();
        let mut decoded = 0u32;
        for _ in 0..len {
            iter.next()?;
            decoded += 1;
        }
        if decoded != len || !iter.cursor.is_empty() {
            return None;
        }
        Some(candidate)
    }
}

/// Lazy decoding iterator over a [`PostingsList`].
pub struct PostingsIter<'a> {
    remaining: u32,
    cursor: &'a [u8],
    prev: Option<u32>,
}

impl PostingsIter<'_> {
    /// The general `(gap, tf − 1)` pair: two full varints.
    fn decode_pair(&mut self) -> Option<(u32, u32)> {
        Some((decode_u32(&mut self.cursor)?, decode_u32(&mut self.cursor)?))
    }

    /// The posting a `(gap, tf − 1)` pair names, or `None` when its doc id
    /// or tf would leave `u32` — bytes no [`PostingsList::from_postings`]
    /// writes.
    #[inline]
    fn posting(&self, gap: u32, tf_minus_one: u32) -> Option<Posting> {
        let doc_id = match self.prev {
            None => gap,
            Some(prev) => prev.checked_add(gap)?.checked_add(1)?,
        };
        Some(Posting {
            doc_id,
            tf: tf_minus_one.checked_add(1)?,
        })
    }
}

impl Iterator for PostingsIter<'_> {
    type Item = Posting;

    fn next(&mut self) -> Option<Posting> {
        if self.remaining == 0 {
            return None;
        }
        let decoded = match *self.cursor {
            // Both high bits clear: each byte is a whole varint.
            [gap, tf, ref rest @ ..] if (gap | tf) & 0x80 == 0 => {
                self.cursor = rest;
                Some((u32::from(gap), u32::from(tf)))
            }
            _ => self.decode_pair(),
        };
        match decoded.and_then(|(gap, tf_minus_one)| self.posting(gap, tf_minus_one)) {
            Some(posting) => {
                self.prev = Some(posting.doc_id);
                self.remaining -= 1;
                Some(posting)
            }
            None => {
                // Malformed tail: stop promising postings.
                self.remaining = 0;
                None
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for PostingsIter<'_> {}

/// Incremental builder used by the index builder: postings are appended in
/// doc-id order as documents stream in.
#[derive(Debug, Clone, Default)]
pub struct PostingsBuilder {
    postings: Vec<Posting>,
}

impl PostingsBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a posting; doc ids must arrive in nondecreasing order, and a
    /// repeated doc id accumulates term frequency.
    pub fn push(&mut self, doc_id: u32, tf: u32) {
        if let Some(last) = self.postings.last_mut() {
            assert!(doc_id >= last.doc_id, "postings must arrive doc-ordered");
            if last.doc_id == doc_id {
                last.tf += tf;
                return;
            }
        }
        self.postings.push(Posting { doc_id, tf });
    }

    /// Current number of distinct documents.
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// Whether nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    /// Finalizes into a compressed list.
    pub fn build(self) -> PostingsList {
        PostingsList::from_postings(&self.postings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Posting> {
        vec![
            Posting { doc_id: 0, tf: 3 },
            Posting { doc_id: 1, tf: 1 },
            Posting { doc_id: 7, tf: 2 },
            Posting {
                doc_id: 1000,
                tf: 9,
            },
            Posting {
                doc_id: 1_000_000,
                tf: 1,
            },
        ]
    }

    #[test]
    fn roundtrip() {
        let list = PostingsList::from_postings(&sample());
        assert_eq!(list.len(), 5);
        assert_eq!(list.to_vec(), sample());
    }

    #[test]
    fn empty_list() {
        let list = PostingsList::from_postings(&[]);
        assert!(list.is_empty());
        assert_eq!(list.iter().count(), 0);
        assert_eq!(list.size_bytes(), 0);
    }

    #[test]
    fn compression_beats_raw() {
        // Dense small gaps compress far below 8 bytes per posting.
        let postings: Vec<Posting> = (0..10_000).map(|i| Posting { doc_id: i, tf: 1 }).collect();
        let list = PostingsList::from_postings(&postings);
        assert_eq!(list.size_bytes(), (2 * 10_000)); // 1 byte gap + 1 byte tf
        assert!(list.size_bytes() < postings.len() * 8);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_rejected() {
        PostingsList::from_postings(&[Posting { doc_id: 5, tf: 1 }, Posting { doc_id: 5, tf: 1 }]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tf_rejected() {
        PostingsList::from_postings(&[Posting { doc_id: 0, tf: 0 }]);
    }

    #[test]
    fn builder_accumulates_repeats() {
        let mut b = PostingsBuilder::new();
        b.push(2, 1);
        b.push(2, 4);
        b.push(9, 1);
        let list = b.build();
        assert_eq!(
            list.to_vec(),
            vec![Posting { doc_id: 2, tf: 5 }, Posting { doc_id: 9, tf: 1 }]
        );
    }

    #[test]
    fn truncated_varint_ends_the_iterator() {
        // Two postings promised; the second pair's gap varint is cut
        // after its continuation byte. `from_raw_parts` refuses such
        // bytes, so build the list directly.
        let list = PostingsList {
            len: 2,
            bytes: vec![3, 0, 0x80],
        };
        let mut it = list.iter();
        assert_eq!(it.next(), Some(Posting { doc_id: 3, tf: 1 }));
        assert_eq!(it.len(), 1);
        assert_eq!(it.next(), None);
        assert_eq!(it.len(), 0, "a failed decode must not keep promising");
        assert_eq!(it.next(), None);
        assert!(PostingsList::from_raw_parts(2, vec![3, 0, 0x80]).is_none());
    }

    #[test]
    fn a_pair_past_u32_ends_the_iterator() {
        // Doc u32::MAX, then a zero gap (doc u32::MAX + 1); then a tf − 1
        // of u32::MAX (tf u32::MAX + 1).
        let max = vec![0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
        let doc_overflow = [max.clone(), vec![0, 0, 0]].concat();
        let tf_overflow = [vec![4], max].concat();
        for (bytes, good) in [(doc_overflow, 1), (tf_overflow, 0)] {
            let list = PostingsList {
                len: good + 1,
                bytes: bytes.clone(),
            };
            let mut it = list.iter();
            assert_eq!(it.by_ref().take(good as usize + 1).count(), good as usize);
            assert_eq!(it.len(), 0);
            assert_eq!(it.next(), None);
            assert!(PostingsList::from_raw_parts(good + 1, bytes).is_none());
        }
    }

    #[test]
    fn iterator_size_hint() {
        let list = PostingsList::from_postings(&sample());
        let mut it = list.iter();
        assert_eq!(it.len(), 5);
        it.next();
        assert_eq!(it.len(), 4);
    }
}
