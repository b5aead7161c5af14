//! Property tests for the index codec: any corpus round-trips to an
//! index answering every query identically, truncated blobs are always
//! rejected, a postings list decodes to what was encoded on both sides of
//! every varint width boundary, and a blob whose postings name a document
//! the index lacks — directly or by a doc id past `u32` — never decodes.

use proptest::prelude::*;
use tsearch_index::{
    decode_index, encode_index, IndexCodecError, InvertedIndex, Posting, PostingsList,
};

/// A TIDX blob of `doc_lens.len()` documents, one term per `(len, bytes)`
/// postings record, written field by field so its postings can say
/// anything.
fn raw_blob(doc_lens: &[u32], lists: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut out = b"TIDX".to_vec();
    for word in [1, doc_lens.len() as u32, lists.len() as u32] {
        out.extend(word.to_le_bytes());
    }
    out.extend(
        doc_lens
            .iter()
            .map(|&l| u64::from(l))
            .sum::<u64>()
            .to_le_bytes(),
    );
    for &len in doc_lens {
        out.extend(len.to_le_bytes());
    }
    for _ in lists {
        out.extend(1u32.to_le_bytes());
    }
    for (len, bytes) in lists {
        out.extend(len.to_le_bytes());
        out.extend((bytes.len() as u32).to_le_bytes());
        out.extend(bytes);
    }
    out
}

#[test]
fn a_posting_past_the_last_document_is_rejected() {
    // Two documents; term 0 in doc 0, term 1 in both.
    let docs: Vec<Vec<u32>> = vec![vec![0, 1], vec![1]];
    let refs: Vec<&[u32]> = docs.iter().map(|d| d.as_slice()).collect();
    let blob = encode_index(&InvertedIndex::build(&refs, 2));
    assert_eq!(
        blob,
        raw_blob(&[2, 1], &[(1, vec![0, 0]), (2, vec![0, 0, 0, 0])])
    );
    assert!(decode_index(&blob).is_ok());

    // Term 0's first gap byte: header, doc lengths, max tfs, (len, byte_len).
    let mut patched = blob.clone();
    patched[24 + 2 * 4 + 2 * 4 + 8] = 9;
    assert_eq!(
        decode_index(&patched).unwrap_err(),
        IndexCodecError::DocOutOfRange {
            term: 0,
            doc_id: 9,
            num_docs: 2
        }
    );
    // The last posting of a longer list, one past the end.
    let blob = raw_blob(&[2, 1], &[(1, vec![0, 0]), (2, vec![0, 0, 1, 0])]);
    assert_eq!(
        decode_index(&blob).unwrap_err(),
        IndexCodecError::DocOutOfRange {
            term: 1,
            doc_id: 2,
            num_docs: 2
        }
    );
}

#[test]
fn a_doc_id_past_u32_is_rejected_not_wrapped() {
    // Doc u32::MAX, then a zero gap: the next doc id would be
    // u32::MAX + 1, which wraps to 0 — inside a 2-doc index.
    let max = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
    let list = [&max[..], &[0, 0, 0]].concat();
    let blob = raw_blob(&[1, 1], &[(2, list)]);
    assert_eq!(decode_index(&blob).unwrap_err(), IndexCodecError::Truncated);
}

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
