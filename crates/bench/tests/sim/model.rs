//! A sequential reference model of what the fleet guarantees, built from
//! ARCHITECTURE's invariants 1–6 and Equation 2, never from the service's
//! bookkeeping. Told what the stack did, it predicts what the stack must
//! report: each tenant's accounting folded over its surviving cycles in
//! commit order, with every member's posterior inferred afresh as
//! submitted; pacer ids increasing across every route; which cycles may
//! roll back; each cycle audited once, at commit; the audit plane's
//! tenants and journal. It re-certifies every cycle and checks the fleet
//! invariant `min(exposure − mask_level, exposure − ε2) ≤ 0`. It also
//! predicts the shared planes: which result-cache keys are resident and
//! which cycles the memo holds, so how many lookups of a step hit.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use toppriv_core::{exposure, mask_level, BeliefEngine, CycleResult, PrivacyRequirement};
use toppriv_service::SessionMetrics;
use tsearch_lda::LdaModel;
use tsearch_text::TermId;

/// Slack for a certificate recomputed in another summation order.
const TOLERANCE: f64 = 1e-9;

/// A journal event: `(code, tenant, cycle)`.
pub type Event = (String, String, u64);

/// A result-cache key: a member's sorted tokens and `min(k, num_docs)`
/// for the `k` it is asked at.
pub type CacheKey = (Vec<TermId>, usize);

/// The lookups a step made of one shared store, as the model allows
/// them: the least and the most lookups, then the least and the most
/// of them that missed.
pub type Lookups = [u64; 4];

/// Whether counter deltas of `hits` and `misses` are what `want` allows.
pub fn allows(want: &Lookups, hits: u64, misses: u64) -> bool {
    let [least, most, least_missed, most_missed] = *want;
    (least..=most).contains(&(hits + misses)) && (least_missed..=most_missed).contains(&misses)
}

/// One committed cycle.
pub struct Cycle {
    pub id: usize,
    pub report: CycleResult,
    pub user_tokens: Vec<TermId>,
    posteriors: Vec<Vec<f64>>,
    /// Members not delivered yet: the cycle may roll back while any are.
    pub outstanding: usize,
    /// Committed since the tenant's trace last restarted (a K change).
    in_trace: bool,
}

/// A tenant, opened with the paper's `(ε1, ε2)`.
struct Tenant {
    /// Which opening of the tenant id this is: a reopened id is new.
    incarnation: usize,
    /// The model the tenant formulates under, and its epoch.
    bound: (Arc<LdaModel>, u64),
    next_id: usize,
    cycles: Vec<Cycle>,
    /// The audit plane holds an entry for the tenant.
    audited: bool,
}

/// The reference model of one fleet.
pub struct Model {
    tenants: BTreeMap<String, Tenant>,
    current: (Arc<LdaModel>, u64),
    opens: usize,
    /// `(tenant, incarnation, cycle)` of every audited cycle.
    audited: BTreeSet<(String, usize, usize)>,
    events: Vec<Event>,
    /// Resident result-cache keys.
    results: BTreeSet<CacheKey>,
    /// Memoized cycles by `(epoch, tokens as analyzed)`; `false` for one
    /// a formulation racing a swap may or may not have left.
    memo: BTreeMap<(u64, Vec<TermId>), bool>,
    /// Lookups since the last `take_lookups`: result cache, cycle memo.
    lookups: [Lookups; 2],
}

impl Model {
    pub fn new(model: Arc<LdaModel>) -> Self {
        Model {
            tenants: BTreeMap::new(),
            current: (model, 0),
            opens: 0,
            audited: BTreeSet::new(),
            events: Vec::new(),
            results: BTreeSet::new(),
            memo: BTreeMap::new(),
            lookups: [[0; 4]; 2],
        }
    }

    /// Opens `id`; `false` when it is open already.
    pub fn open(&mut self, id: &str) -> bool {
        if self.tenants.contains_key(id) {
            return false;
        }
        self.opens += 1;
        let tenant = Tenant {
            incarnation: self.opens,
            bound: self.current.clone(),
            next_id: 0,
            cycles: Vec::new(),
            audited: false,
        };
        self.tenants.insert(id.to_string(), tenant);
        true
    }

    /// Closes `id`, returning its final metrics; the audit plane forgets it.
    pub fn close(&mut self, id: &str) -> Option<SessionMetrics> {
        let metrics = self.metrics(id);
        self.tenants.remove(id).and(metrics)
    }

    pub fn is_open(&self, id: &str) -> bool {
        self.tenants.contains_key(id)
    }

    pub fn open_ids(&self) -> Vec<String> {
        self.tenants.keys().cloned().collect()
    }

    /// A model swap: each tenant rebinds on its next formulation, and no
    /// memoized cycle is asked for again.
    pub fn swap(&mut self, model: Arc<LdaModel>) {
        self.current = (model, self.current.1 + 1);
        self.memo.clear();
    }

    pub fn epoch(&self) -> u64 {
        self.current.1
    }

    /// A tier swap: every cached ranking came from the old index.
    pub fn swap_tier(&mut self) {
        self.results.clear();
    }

    /// Result-cache entries resident.
    pub fn resident(&self) -> usize {
        self.results.len()
    }

    /// A formulation of `tokens` under the current model asks the memo
    /// once, or, `racing` a swap, once or twice (a cycle formulated under
    /// the old model is formulated again at its commit).
    pub fn formulate(&mut self, tokens: &[TermId], racing: bool) {
        let known = self.memo.insert((self.current.1, tokens.to_vec()), !racing);
        let (least, most) = (known.is_none(), known != Some(true));
        let lookups = [1, 1, u64::from(least), u64::from(most)];
        self.count(1, if racing { [1, 2, 0, 2] } else { lookups });
    }

    /// Resolutions of queue entries, each its key and subscriber count,
    /// by any number of workers: each new key misses once, and every other
    /// lookup — a subscriber beyond the first included — hits. (A drain
    /// resolves equal keys on one worker, in queue order.)
    pub fn resolve(&mut self, entries: &[(CacheKey, u64)]) {
        let before = self.results.len() as u64;
        let total = entries.iter().map(|e| e.1).sum();
        self.results.extend(entries.iter().map(|e| e.0.clone()));
        let new = self.results.len() as u64 - before;
        self.count(0, [total, total, new, new]);
    }

    fn count(&mut self, plane: usize, lookups: Lookups) {
        let sum = self.lookups[plane].iter_mut().zip(lookups);
        sum.for_each(|(sum, n)| *sum += n);
    }

    /// The lookups predicted since the last call: result cache, memo.
    pub fn take_lookups(&mut self) -> [Lookups; 2] {
        std::mem::take(&mut self.lookups)
    }

    /// `id` has not rebound to the current model yet.
    pub fn unbound(&self, id: &str) -> bool {
        self.tenants[id].bound.1 != self.current.1
    }

    /// Rebinds `id` to the current model, as its next formulation does,
    /// and returns the model. A K change settles every cycle and restarts
    /// the trace: topic ids changed meaning.
    pub fn bind(&mut self, id: &str) -> Arc<LdaModel> {
        let current = self.current.clone();
        let t = self.tenants.get_mut(id).expect("bind an open tenant");
        if t.bound.1 != current.1 && t.bound.0.num_topics() != current.0.num_topics() {
            for c in &mut t.cycles {
                (c.outstanding, c.in_trace) = (0, false);
            }
        }
        t.bound = current;
        t.bound.0.clone()
    }

    /// Commits `report` for `id` with every member outstanding: checks its
    /// certificate, draws its pacer id, audits it once and predicts the
    /// audit plane's verdict event. Returns the cycle id.
    pub fn commit(&mut self, id: &str, report: &CycleResult, user: &[TermId]) -> usize {
        let b = BeliefEngine::new(self.bind(id));
        let t = self.tenants.get_mut(id).expect("bound above");
        let prior = b.prior();
        let members = report.cycle.iter();
        let posteriors: Vec<Vec<f64>> = members.map(|q| b.posterior(&q.tokens)).collect();
        let n = posteriors.len() as f64;
        let boosts: Vec<f64> = (0..prior.len())
            .map(|k| posteriors.iter().map(|p| p[k]).sum::<f64>() / n - prior[k])
            .collect();
        let genuine = report.genuine_index;
        let solo = BeliefEngine::boost_from_posterior(&posteriors[genuine], prior);
        let requirement = PrivacyRequirement::paper_default();
        let intention = requirement.user_intention(&solo);
        let exp = exposure(&boosts, &intention);
        let mask = mask_level(&boosts, &intention);
        let (m, eps2) = (&report.metrics, requirement.eps2);
        let mut sorted = user.to_vec();
        sorted.sort_unstable();
        assert_eq!(report.cycle[genuine].tokens, sorted, "{id}'s genuine");
        assert_eq!(intention, report.intention, "{id}'s intention");
        let off = (exp - m.exposure).abs().max((mask - m.mask_level).abs());
        assert!(off <= TOLERANCE, "{id}: {m:?} vs {exp:e}, {mask:e}");
        let violation = (exp - mask).min(exp - eps2);
        assert!(violation <= TOLERANCE, "{id}: invariant {violation:e}");
        let cycle_id = t.next_id;
        t.next_id += 1;
        t.audited = true;
        t.cycles.push(Cycle {
            id: cycle_id,
            report: report.clone(),
            user_tokens: user.to_vec(),
            posteriors,
            outstanding: report.cycle_len(),
            in_trace: true,
        });
        let key = (id.to_string(), t.incarnation, cycle_id);
        assert!(self.audited.insert(key), "{id}: {cycle_id} audited twice");
        // The audit plane judges the reported certificate and the trace
        // exposure after the debit.
        let headroom = eps2 - self.metrics(id).expect("open").trace_exposure;
        if (m.exposure - m.mask_level).min(m.exposure - eps2) > TOLERANCE {
            self.note("eps2_breach", id, cycle_id as u64);
        } else if headroom < 0.25 * eps2 {
            self.note("low_headroom", id, cycle_id as u64);
        }
        cycle_id
    }

    /// Counts `members` of a cycle delivered.
    pub fn deliver(&mut self, id: &str, cycle_id: usize, members: usize) {
        let cycles = self.tenants.get_mut(id).map(|t| &mut t.cycles);
        if let Some(c) = cycles.and_then(|cs| cs.iter_mut().find(|c| c.id == cycle_id)) {
            c.outstanding = c.outstanding.saturating_sub(members);
        }
    }

    /// Rolls back a cycle with a member outstanding and returns its user
    /// tokens; `None` for a delivered, settled or unknown one.
    pub fn rollback(&mut self, id: &str, cycle_id: usize) -> Option<Vec<TermId>> {
        let cycles = &mut self.tenants.get_mut(id)?.cycles;
        let at = cycles
            .iter()
            .position(|c| c.id == cycle_id && c.outstanding > 0)?;
        let cycle = cycles.remove(at);
        self.note("cycle_rolled_back", id, cycle_id as u64);
        Some(cycle.user_tokens)
    }

    /// A spill, close and restore of `id`: the restored tenant holds its
    /// accounting settled, and the audit plane forgot it at the close.
    pub fn spill_restore(&mut self, id: &str) {
        let t = self.tenants.get_mut(id).expect("restore an open tenant");
        t.cycles.iter_mut().for_each(|c| c.outstanding = 0);
        t.audited = false;
    }

    /// The pacer id `id`'s next commit draws: one per commit, every route.
    pub fn next_id(&self, id: &str) -> usize {
        self.tenants[id].next_id
    }

    pub fn cycles(&self, id: &str) -> &[Cycle] {
        self.tenants.get(id).map_or(&[], |t| &t.cycles)
    }

    pub fn cycle(&self, id: &str, cycle_id: usize) -> Option<&Cycle> {
        self.cycles(id).iter().find(|c| c.id == cycle_id)
    }

    /// Expects one journal event.
    pub fn note(&mut self, code: &str, tenant: &str, cycle: u64) {
        self.events.push((code.into(), tenant.into(), cycle));
    }

    /// The events expected since the last call, sorted.
    pub fn take_events(&mut self) -> Vec<Event> {
        let mut events = std::mem::take(&mut self.events);
        events.sort();
        events
    }

    /// Cycles audited, and the tenants the audit plane holds.
    pub fn audit(&self) -> (u64, Vec<String>) {
        let tenants = self.tenants.iter().filter(|(_, t)| t.audited);
        let tenants = tenants.map(|(id, _)| id.clone()).collect();
        (self.audited.len() as u64, tenants)
    }

    /// Equation 2's trace accounting of `id`, folded over its surviving
    /// cycles in commit order.
    pub fn metrics(&self, id: &str) -> Option<SessionMetrics> {
        let t = self.tenants.get(id)?;
        let (mut sum, mut count, mut union) = (Vec::<f64>::new(), 0u64, BTreeSet::new());
        let (mut cycles, mut emitted, mut satisfied) = (0u64, 0u64, 0u64);
        let (mut exp, mut worst, mut mask) = (0.0f64, 0.0f64, 0.0f64);
        for c in &t.cycles {
            let r = &c.report;
            if c.in_trace {
                if sum.is_empty() {
                    sum = vec![0.0; t.bound.0.num_topics()];
                }
                for p in &c.posteriors {
                    sum.iter_mut().zip(p).for_each(|(s, p)| *s += p);
                    count += 1;
                }
                union.extend(r.intention.iter().copied());
            }
            cycles += 1;
            emitted += r.cycle_len() as u64;
            exp += r.metrics.exposure;
            worst = worst.max(r.metrics.exposure);
            mask += r.metrics.mask_level;
            satisfied += u64::from(r.satisfied);
        }
        // Trace boost: the mean posterior over every member, less the prior.
        let boost = |(s, p): (&f64, &f64)| s / count as f64 - p;
        let boosts: Vec<f64> = sum.iter().zip(t.bound.0.prior()).map(boost).collect();
        let union: Vec<usize> = union.into_iter().collect();
        let trace_exposure = exposure(&boosts, &union);
        let n = cycles.max(1) as f64;
        Some(SessionMetrics {
            session: id.to_string(),
            cycles,
            queries_emitted: emitted,
            // Whole cycle lengths add up exactly in f64.
            mean_cycle_len: emitted as f64 / n,
            mean_exposure: exp / n,
            worst_exposure: worst,
            mean_mask_level: mask / n,
            satisfied_rate: satisfied as f64 / n,
            trace_exposure,
        })
    }
}
