//! Compressed postings lists.
//!
//! Each term's postings are a sequence of `(doc_id, term_frequency)` pairs,
//! doc-id sorted, stored as delta + varint encoded bytes. This matches the
//! `<p_ij, d_j>` pairs of the paper's inverted lists, and the encoded byte
//! size is what Figure 6 accounts as "inverted index size".
//!
//! Decoding is the inner loop of every evaluation, and nearly every pair
//! is two single-byte varints (a gap under 128 to the previous document,
//! a term frequency under 129). [`PostingsIter::next`] reads such a pair
//! straight off the slice and hands everything else — continuation
//! bytes, truncation, overflow — to [`crate::varint::decode_u32`], the
//! one decoder that understands them; a pair whose doc id or tf would
//! leave `u32` ends the list like any other malformed tail. `next()` is
//! the only general decoder: [`PostingsList::from_raw_parts`] walks
//! untrusted bytes through it before a list exists.
//!
//! A reader that drives the whole list through `fold` or `for_each` (the
//! engine's scoring loops) also gets a word-at-a-time path: one `u64` load
//! yields four one-byte pairs when none of its eight bytes has the high
//! bit set and the doc id cannot leave `u32` within them. Every other step
//! is one `next()`, so the postings, and where they stop, are `next()`'s.

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

    /// Takes four one-byte `(gap, tf − 1)` pairs per 8-byte load while at
    /// least four postings remain and no doc id can leave `u32`; every
    /// other posting is one call to [`PostingsIter::next`].
    fn fold<B, F>(mut self, mut acc: B, mut f: F) -> B
    where
        F: FnMut(B, Posting) -> B,
    {
        /// The high bit of each byte: set on a varint continuation byte.
        const HIGH_BITS: u64 = 0x8080_8080_8080_8080;
        /// The most four one-byte pairs can advance the doc id: 4 × (127 + 1).
        const MAX_WORD_ADVANCE: u32 = 512;
        loop {
            if let (4.., Some(prev), Some((word, rest))) = (
                self.remaining,
                self.prev,
                self.cursor.split_first_chunk::<8>(),
            ) {
                let word = u64::from_le_bytes(*word);
                if word & HIGH_BITS == 0 && prev <= u32::MAX - MAX_WORD_ADVANCE {
                    let mut doc_id = prev;
                    for pair in 0..4 {
                        let gap = (word >> (16 * pair)) as u8;
                        let tf_minus_one = (word >> (16 * pair + 8)) as u8;
                        doc_id += u32::from(gap) + 1;
                        let tf = u32::from(tf_minus_one) + 1;
                        acc = f(acc, Posting { doc_id, tf });
                    }
                    self.prev = Some(doc_id);
                    self.remaining -= 4;
                    self.cursor = rest;
                    continue;
                }
            }
            match self.next() {
                Some(posting) => acc = f(acc, posting),
                None => return acc,
            }
        }
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
    use proptest::prelude::*;

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

    /// A list of `len` postings over `bytes` as given: no validation, so
    /// the bytes may say anything.
    fn raw(len: u32, bytes: &[u8]) -> PostingsList {
        PostingsList {
            len,
            bytes: bytes.to_vec(),
        }
    }

    /// The postings after the first `skip`, one `next()` at a time, and
    /// the same through `fold` after `skip` calls to `next()`.
    fn stepped_and_folded(list: &PostingsList, skip: usize) -> (Vec<Posting>, Vec<Posting>) {
        let stepped = list.iter().skip(skip).collect();
        let mut it = list.iter();
        for _ in 0..skip {
            it.next();
        }
        let folded = it.fold(Vec::new(), |mut out, p| {
            out.push(p);
            out
        });
        (stepped, folded)
    }

    fn assert_fold_is_next(list: &PostingsList) {
        for skip in 0..=5 {
            let (stepped, folded) = stepped_and_folded(list, skip);
            assert_eq!(folded, stepped, "skip {skip} of {list:?}");
        }
    }

    /// `count` one-byte pairs: gaps and tfs − 1 cycling below 128.
    fn one_byte_pairs(count: usize) -> Vec<u8> {
        (0..count)
            .flat_map(|i| [(i * 37 % 128) as u8, (i * 11 % 128) as u8])
            .collect()
    }

    #[test]
    fn fold_stops_where_next_does_at_every_length() {
        let bytes = one_byte_pairs(9);
        for len in 0..=9 {
            let list = raw(len, &bytes);
            assert_eq!(list.iter().count(), len as usize);
            assert_fold_is_next(&list);
        }
        // Fewer bytes than `len` promises.
        for cut in 0..bytes.len() {
            assert_fold_is_next(&raw(9, &bytes[..cut]));
        }
    }

    #[test]
    fn fold_falls_back_on_a_high_bit_at_every_offset_of_a_word() {
        let mut bytes = one_byte_pairs(12);
        // The first posting is `next()`'s; the word starts after it.
        for offset in 0..8 {
            let mut patched = bytes.clone();
            patched[2 + offset] |= 0x80;
            for len in [4, 5, 6] {
                assert_fold_is_next(&raw(len, &patched));
            }
        }
        // A high bit in every byte, and a 5-byte varint past `u32`.
        bytes.iter_mut().for_each(|b| *b |= 0x80);
        assert_fold_is_next(&raw(6, &bytes));
        assert_fold_is_next(&raw(6, &[0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0, 1, 1]));
    }

    #[test]
    fn fold_takes_the_first_gap_as_the_doc_id() {
        let list = raw(5, &[5, 2, 0, 0, 1, 0, 127, 127, 0, 3]);
        let expected = [(5, 3), (6, 1), (8, 1), (136, 128), (137, 4)]
            .map(|(doc_id, tf)| Posting { doc_id, tf });
        assert_eq!(stepped_and_folded(&list, 0).1, expected);
        assert_fold_is_next(&list);
    }

    #[test]
    fn fold_near_u32_max_ends_where_next_does() {
        for below_max in [0, 1, 2, 127, 128, 384, 510, 511, 512, 513, 640, 1024] {
            let mut bytes = Vec::new();
            encode_u32(&mut bytes, u32::MAX - below_max);
            bytes.push(0);
            for gap in [127u8, 0, 127, 127, 5, 127, 127, 127, 127, 0] {
                bytes.extend([gap, 1]);
            }
            let list = raw(11, &bytes);
            assert_fold_is_next(&list);
            let last = list.iter().fold(None, |_, p| Some(p.doc_id));
            assert!(last.is_some_and(|d| d >= u32::MAX - below_max));
        }
    }

    proptest! {
        #[test]
        fn fold_yields_exactly_what_next_does(
            len in 0u32..40,
            // Mostly one-byte values, so whole words qualify, with a
            // continuation byte now and then.
            bytes in collection::vec(
                (0u8..8, any::<u8>()).prop_map(|(roll, b)| if roll == 0 { b } else { b & 0x7F }),
                0..90,
            ),
            // Optionally start a few words below `u32::MAX`.
            lift in prop_oneof![0u32..1, (u32::MAX - 2048)..=u32::MAX],
        ) {
            let mut head = Vec::new();
            if lift > 0 {
                encode_u32(&mut head, lift);
                head.push(0);
            }
            let list = raw(len, &[head, bytes].concat());
            assert_fold_is_next(&list);
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
