//! Property tests for the session spill codec: for every session state —
//! arbitrary trace sums, exposure aggregates, configs — the
//! spill round-trips **bitwise** (every `f64` compared by bit pattern,
//! not tolerance), both at the raw codec layer and through the sealed
//! CRC32 store container, and any single corrupted byte in a sealed
//! container is rejected rather than decoded.

use proptest::prelude::*;
use toppriv_core::{GhostConfig, PacingConfig, PacingStrategy, PrivacyRequirement, TermSelection};
use toppriv_service::persist::{decode_session_state, encode_session_state};
use toppriv_service::{seal_session_state, unseal_session_state, SessionConfig, SessionState};

fn pacing_strategy() -> impl Strategy<Value = PacingStrategy> {
    prop_oneof![
        Just(PacingStrategy::NaiveImmediate),
        Just(PacingStrategy::ShuffledBurst),
        (any::<f64>(), any::<f64>()).prop_map(|(window_secs, max_genuine_delay_secs)| {
            PacingStrategy::PoissonSpread {
                window_secs,
                max_genuine_delay_secs,
            }
        }),
    ]
}

fn config_strategy() -> impl Strategy<Value = SessionConfig> {
    (
        (any::<f64>(), any::<f64>()),
        (
            any::<f64>(),
            any::<f64>(),
            0usize..1000,
            0usize..1000,
            any::<bool>(),
            any::<u64>(),
        ),
        (pacing_strategy(), any::<f64>(), any::<f64>(), any::<u64>()),
        (0usize..1000, any::<f64>()),
    )
        .prop_map(
            |(
                (eps1, eps2),
                (min_len_mult, max_len_mult, max_cycle_len, term_pool, biased, ghost_seed),
                (strategy, burst_gap_secs, jitter, pacing_seed),
                (top_k, think_time_secs),
            )| SessionConfig {
                requirement: PrivacyRequirement { eps1, eps2 },
                ghost: GhostConfig {
                    min_len_mult,
                    max_len_mult,
                    max_cycle_len,
                    term_pool,
                    term_selection: if biased {
                        TermSelection::Biased
                    } else {
                        TermSelection::SpecificityMatched
                    },
                    seed: ghost_seed,
                },
                pacing: PacingConfig {
                    strategy,
                    burst_gap_secs,
                    jitter,
                    seed: pacing_seed,
                },
                top_k,
                think_time_secs,
            },
        )
}

fn state_strategy() -> impl Strategy<Value = SessionState> {
    (
        config_strategy(),
        (
            any::<f64>(),
            proptest::collection::vec(0u64..64, 0..6),
            proptest::collection::vec(any::<f64>(), 0..8),
            any::<u64>(),
            any::<u64>(),
        ),
        (
            (any::<u64>(), any::<u64>(), any::<u64>()),
            (any::<f64>(), any::<f64>(), any::<f64>(), any::<f64>()),
            any::<u64>(),
            any::<u64>(),
        ),
    )
        .prop_map(
            |(
                config,
                (clock_secs, union_raw, posterior_sum, posterior_count, next_cycle_id),
                (
                    (cycles, queries_emitted, satisfied),
                    (sum_cycle_len, sum_exposure, worst_exposure, sum_mask),
                    model_epoch,
                    id_nonce,
                ),
            )| SessionState {
                id: format!("tenant-{id_nonce:x}"),
                config,
                model_epoch,
                clock_secs,
                intention_union: union_raw.iter().map(|&t| t as usize).collect(),
                posterior_sum,
                posterior_count,
                next_cycle_id,
                cycles,
                queries_emitted,
                sum_cycle_len,
                sum_exposure,
                worst_exposure,
                sum_mask,
                satisfied,
            },
        )
}

/// Bitwise equality: `u64`/`usize` fields by value, every `f64` by
/// `to_bits` (tolerance-free, NaN-safe).
fn bit_identical(a: &SessionState, b: &SessionState) -> bool {
    let f = |x: f64, y: f64| x.to_bits() == y.to_bits();
    let fs = |x: &[f64], y: &[f64]| x.len() == y.len() && x.iter().zip(y).all(|(&p, &q)| f(p, q));
    a.id == b.id
        && f(a.config.requirement.eps1, b.config.requirement.eps1)
        && f(a.config.requirement.eps2, b.config.requirement.eps2)
        && f(a.config.ghost.min_len_mult, b.config.ghost.min_len_mult)
        && f(a.config.ghost.max_len_mult, b.config.ghost.max_len_mult)
        && a.config.ghost.max_cycle_len == b.config.ghost.max_cycle_len
        && a.config.ghost.term_pool == b.config.ghost.term_pool
        && a.config.ghost.term_selection == b.config.ghost.term_selection
        && a.config.ghost.seed == b.config.ghost.seed
        && match (&a.config.pacing.strategy, &b.config.pacing.strategy) {
            (PacingStrategy::NaiveImmediate, PacingStrategy::NaiveImmediate) => true,
            (PacingStrategy::ShuffledBurst, PacingStrategy::ShuffledBurst) => true,
            (
                PacingStrategy::PoissonSpread {
                    window_secs: w1,
                    max_genuine_delay_secs: d1,
                },
                PacingStrategy::PoissonSpread {
                    window_secs: w2,
                    max_genuine_delay_secs: d2,
                },
            ) => f(*w1, *w2) && f(*d1, *d2),
            _ => false,
        }
        && f(
            a.config.pacing.burst_gap_secs,
            b.config.pacing.burst_gap_secs,
        )
        && f(a.config.pacing.jitter, b.config.pacing.jitter)
        && a.config.pacing.seed == b.config.pacing.seed
        && a.config.top_k == b.config.top_k
        && f(a.config.think_time_secs, b.config.think_time_secs)
        && a.model_epoch == b.model_epoch
        && f(a.clock_secs, b.clock_secs)
        && a.intention_union == b.intention_union
        && fs(&a.posterior_sum, &b.posterior_sum)
        && a.posterior_count == b.posterior_count
        && a.next_cycle_id == b.next_cycle_id
        && a.cycles == b.cycles
        && a.queries_emitted == b.queries_emitted
        && f(a.sum_cycle_len, b.sum_cycle_len)
        && f(a.sum_exposure, b.sum_exposure)
        && f(a.worst_exposure, b.worst_exposure)
        && f(a.sum_mask, b.sum_mask)
        && a.satisfied == b.satisfied
}

proptest! {
    #[test]
    fn codec_roundtrips_bitwise(state in state_strategy()) {
        let back = decode_session_state(&encode_session_state(&state))
            .expect("freshly encoded state decodes");
        prop_assert!(bit_identical(&state, &back));
    }

    #[test]
    fn sealed_container_roundtrips_bitwise(state in state_strategy()) {
        let sealed = seal_session_state(&state);
        let back = unseal_session_state(&sealed).expect("sealed state unseals");
        prop_assert!(bit_identical(&state, &back));
    }

    #[test]
    fn any_corrupted_byte_is_rejected(state in state_strategy(), pos: u64, flip in 1u8..=255) {
        let sealed = seal_session_state(&state);
        let mut bad = sealed.clone();
        let at = pos as usize % bad.len();
        bad[at] ^= flip;
        prop_assert!(unseal_session_state(&bad).is_err());
    }
}
