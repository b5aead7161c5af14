//! Property tests for the index codec: any corpus round-trips to an
//! index answering every query identically, truncated blobs are always
//! rejected, and a postings list decodes to what was encoded on both
//! sides of every varint width boundary.

use proptest::prelude::*;
use tsearch_index::{decode_index, encode_index, InvertedIndex, Posting, PostingsList};

/// Strategy: a small corpus of token documents over a bounded vocab.
fn corpus_strategy() -> impl Strategy<Value = (Vec<Vec<u32>>, usize)> {
    (1usize..40).prop_flat_map(|vocab_size| {
        (
            proptest::collection::vec(
                proptest::collection::vec(0u32..vocab_size as u32, 0..30),
                0..20,
            ),
            Just(vocab_size),
        )
    })
}

/// Values on both sides of where a varint grows a byte (and so where the
/// decoder's one-byte shortcut stops applying), and at the top of `u32`.
fn varint_edge() -> impl Strategy<Value = u32> {
    prop_oneof![
        0u32..3,
        125u32..131,
        16_381u32..16_387,
        (u32::MAX - 3)..=u32::MAX,
    ]
}

/// Strictly increasing postings built from edge-valued `(gap, tf − 1)`
/// pairs; the list ends where the next doc id would leave `u32`.
fn edge_postings() -> impl Strategy<Value = Vec<Posting>> {
    proptest::collection::vec((varint_edge(), varint_edge()), 0..40).prop_map(|pairs| {
        let mut postings: Vec<Posting> = Vec::new();
        for (gap, tf_minus_one) in pairs {
            let doc_id = match postings.last() {
                None => Some(gap),
                Some(prev) => prev.doc_id.checked_add(gap).and_then(|d| d.checked_add(1)),
            };
            let Some(doc_id) = doc_id else { break };
            let tf = tf_minus_one.min(u32::MAX - 1) + 1;
            postings.push(Posting { doc_id, tf });
        }
        postings
    })
}

proptest! {
    #[test]
    fn postings_roundtrip_across_varint_boundaries(postings in edge_postings()) {
        let list = PostingsList::from_postings(&postings);
        let mut iter = list.iter();
        for (i, expected) in postings.iter().enumerate() {
            prop_assert_eq!(iter.len(), postings.len() - i);
            prop_assert_eq!(iter.next(), Some(*expected));
        }
        prop_assert_eq!(iter.len(), 0);
        prop_assert_eq!(iter.next(), None);

        let (len, bytes) = list.raw_parts();
        let rebuilt = PostingsList::from_raw_parts(len, bytes.to_vec()).expect("own bytes");
        prop_assert_eq!(rebuilt.to_vec(), postings);
        for cut in 0..bytes.len() {
            prop_assert!(
                PostingsList::from_raw_parts(len, bytes[..cut].to_vec()).is_none(),
                "prefix of {} of {} bytes accepted", cut, bytes.len()
            );
        }
    }

    #[test]
    fn roundtrip_preserves_postings((docs, vocab_size) in corpus_strategy()) {
        let refs: Vec<&[u32]> = docs.iter().map(|d| d.as_slice()).collect();
        let index = InvertedIndex::build(&refs, vocab_size);
        let back = decode_index(&encode_index(&index)).expect("fresh blob decodes");
        prop_assert_eq!(back.num_docs(), index.num_docs());
        prop_assert_eq!(back.num_terms(), index.num_terms());
        prop_assert_eq!(back.total_tokens(), index.total_tokens());
        for t in 0..vocab_size as u32 {
            prop_assert_eq!(back.postings_vec(t), index.postings_vec(t));
            prop_assert_eq!(back.max_tf(t), index.max_tf(t));
        }
        for d in 0..index.num_docs() as u32 {
            prop_assert_eq!(back.doc_len(d), index.doc_len(d));
        }
    }

    #[test]
    fn truncation_always_rejected(
        (docs, vocab_size) in corpus_strategy(),
        cut in 1usize..64,
    ) {
        let refs: Vec<&[u32]> = docs.iter().map(|d| d.as_slice()).collect();
        let index = InvertedIndex::build(&refs, vocab_size);
        let blob = encode_index(&index);
        let cut = cut.min(blob.len());
        prop_assert!(decode_index(&blob[..blob.len() - cut]).is_err());
    }
}
