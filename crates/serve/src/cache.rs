//! A bounded, deterministically-evicting compiled-program cache.
//!
//! The unbounded `HashMap` the server used before this module was a
//! footgun: a tenant cycling unique programs grows the process without
//! limit. `ProgramCache` holds at most `cap` entries and evicts by a
//! **cost-aware LRU** rule whose clock is the *admission ordinal* —
//! the dense per-request counter handed out by
//! [`SharedCeiling::take_ordinal`](hac_runtime::governor::SharedCeiling::take_ordinal)
//! — never wall time. Eviction is therefore a pure function of the
//! request sequence: the same workload always evicts the same entries
//! in the same order, at any worker count (admission is sequential).
//!
//! The victim rule: evict the entry minimizing
//! `(last_used + cost, last_used)`, where `cost` is the number of
//! compiled units in the program — a deterministic proxy for how
//! expensive the entry is to rebuild. Costlier programs thus survive a
//! few ordinals longer than cheap ones touched at the same time. The
//! choice is total: an admission stamps at most one entry of a map, so
//! no two entries of one map share `last_used`.
//!
//! Entries are keyed by the request content they are valid for — a
//! [`ProgramKey`] is the whole source, the parameter environment, the
//! mode and the engine — and every probe compares whole keys, so two
//! requests share an entry exactly when they share that content.
//!
//! Evicting is never incorrect, only slower: a re-admitted evicted
//! program recompiles from the same source and parameters, and the
//! repo's determinism contract guarantees the rebuilt program behaves
//! bit-identically (the eviction proptests pin this).
//!
//! Each cached [`Compiled`] carries its cost certificate
//! (`Compiled::cert`), so a cache hit reuses the certificate along
//! with the tape — certificate admission never recompiles or re-derives
//! bounds on the hot path.

//! ## The materialized-result cache
//!
//! [`ResultCache`] lives next to the program cache and shares its
//! ordinal clock and victim rule, but caches *evaluated outcomes*:
//! full entries memoize a request's terminal response fields (digests,
//! fuel left, error class), and family entries snapshot the execution
//! state of a `bigupd`-rooted program just before its trailing update
//! so sliding-parameter requests replay only the update (the delta
//! path). Determinism is preserved by doing every membership change —
//! install and eviction — on the sequential admission path; execution
//! threads only *resolve* slots in place (`Pending → Ready/Failed`)
//! and never alter membership or recency. Family snapshots hold real
//! arrays, so their bytes are charged to the shared ceiling by the
//! server at install and refunded on eviction or failure
//! (the ledger's `resident_bytes` gauge tracks the residency).
//!
//! Both caches count into the server's [`Ledger`] under the lock the
//! server already holds around each call.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use hac_core::pipeline::{Compiled, Engine, ExecMode, ExecState};
use hac_lang::env::ConstEnv;
use hac_runtime::governor::Limits;

use crate::ledger::{Counter, Ledger};
use crate::Status;

/// What a compiled program is a pure function of, and what the server
/// compiles it from: the source, the parameter environment, the mode
/// and the engine. The environment is a name-ordered map, so the order
/// bindings were given in never splits a key, and a name given twice
/// binds its last value. Seed and limits are absent: they change a
/// run, not its program.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProgramKey {
    pub(crate) source: Arc<str>,
    pub(crate) env: ConstEnv,
    pub(crate) mode: ExecMode,
    pub(crate) engine: Engine,
}

impl ProgramKey {
    pub fn new(source: Arc<str>, params: &[(String, i64)], mode: ExecMode, engine: Engine) -> Self {
        let env = params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        ProgramKey {
            source,
            env,
            mode,
            engine,
        }
    }
}

/// What a memoized outcome is a pure function of: the program, the
/// input seed, and the *effective* limits (post deadline conversion
/// and certificate fill-in). Limits are in the key so error outcomes
/// (which quote budgets) cache soundly and a hit never needs a budget
/// re-check. Thread count is deliberately absent: the determinism
/// contract makes outcomes thread-invariant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResultKey {
    pub program: ProgramKey,
    pub seed: u64,
    pub limits: Limits,
}

/// The key a family snapshot is shared under: every request whose
/// params differ only in the *values* of the trailing update's own
/// parameters. It is the program key without those bindings, plus
/// their names and the seed. Limits are absent: a snapshot is priced
/// per request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FamilyKey {
    prefix: ProgramKey,
    delta_params: Vec<String>,
    seed: u64,
}

impl FamilyKey {
    pub fn new(program: &ProgramKey, delta_params: &[String], seed: u64) -> FamilyKey {
        let env = program
            .env
            .iter()
            .filter(|(k, _)| !delta_params.iter().any(|d| d == k));
        let prefix = ProgramKey {
            env: env.collect(),
            ..program.clone()
        };
        let mut delta_params = delta_params.to_vec();
        delta_params.sort();
        FamilyKey {
            prefix,
            delta_params,
            seed,
        }
    }
}

/// The victim rule both caches evict by: among `(key, last_used,
/// cost)` entries, the one minimizing `(last_used + cost, last_used)`,
/// returned as that rank and its key.
fn victim<K>(entries: impl Iterator<Item = (K, u64, u64)>) -> Option<((u64, u64), K)> {
    entries
        .map(|(key, last_used, cost)| ((last_used + cost, last_used), key))
        .min_by_key(|&(rank, _)| rank)
}

#[derive(Debug)]
struct Entry {
    program: Arc<Compiled>,
    /// Admission ordinal of the last request that looked this entry up
    /// (or inserted it).
    last_used: u64,
    /// Rebuild-cost proxy: compiled unit count, clamped to ≥ 1.
    cost: u64,
}

/// The bounded cache. Not internally synchronized — the server wraps
/// it in a `Mutex` (lookups and insertions happen on the sequential
/// admission path, so the lock is uncontended in steady state). It
/// counts into the `cache` section of its ledger; the reconciliation
/// invariants `hits + misses == lookups` and
/// `insertions - evictions == live` hold after every call.
#[derive(Debug)]
pub struct ProgramCache {
    cap: usize,
    entries: HashMap<ProgramKey, Entry>,
    ledger: Arc<Ledger>,
}

impl ProgramCache {
    /// A cache holding at most `cap` entries; `cap == 0` means
    /// unbounded (the pre-eviction behavior, available via
    /// `--cache-cap 0` for embedders that key a small closed program
    /// set).
    pub fn new(cap: usize, ledger: Arc<Ledger>) -> ProgramCache {
        ProgramCache {
            cap,
            entries: HashMap::new(),
            ledger,
        }
    }

    /// Look `key` up, stamping the entry's recency with `ordinal` on a
    /// hit.
    pub fn lookup(&mut self, key: &ProgramKey, ordinal: u64) -> Option<Arc<Compiled>> {
        self.ledger.add(Counter::CacheLookups, 1);
        match self.entries.get_mut(key) {
            Some(e) => {
                e.last_used = ordinal;
                self.ledger.add(Counter::CacheHits, 1);
                Some(Arc::clone(&e.program))
            }
            None => {
                self.ledger.add(Counter::CacheMisses, 1);
                None
            }
        }
    }

    /// Insert a freshly compiled program under `key`, evicting as many
    /// victims as needed to respect the capacity. Returns how many
    /// entries were evicted (0 or 1 in steady state; more only after a
    /// capacity reconfiguration). Re-inserting an existing key
    /// refreshes it in place and never evicts.
    pub fn insert(&mut self, key: ProgramKey, program: Arc<Compiled>, ordinal: u64) -> u64 {
        let cost = (program.units.len() as u64).max(1);
        if let Some(e) = self.entries.get_mut(&key) {
            e.program = program;
            e.last_used = ordinal;
            e.cost = cost;
            return 0;
        }
        let mut evicted = 0;
        if self.cap > 0 {
            while self.entries.len() >= self.cap {
                let (_, victim) =
                    victim(self.entries.iter().map(|(k, e)| (k, e.last_used, e.cost)))
                        .expect("cap > 0 and len >= cap imply an entry");
                let victim = victim.clone();
                self.entries.remove(&victim);
                self.ledger.add(Counter::CacheEvictions, 1);
                self.ledger.sub(Counter::CacheLive, 1);
                evicted += 1;
            }
        }
        self.entries.insert(
            key,
            Entry {
                program,
                last_used: ordinal,
                cost,
            },
        );
        self.ledger.add(Counter::CacheInsertions, 1);
        self.ledger.add(Counter::CacheLive, 1);
        evicted
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A memoized terminal outcome: every response field that is a pure
/// function of the full result key. Limits are part of that key, so
/// error outcomes (exhaustions, runtime failures) cache as readily as
/// successes — a hit serves them byte-identically with no budget
/// re-checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedOutcome {
    pub status: Status,
    pub answer_digest: Option<String>,
    pub counters_digest: Option<String>,
    pub fuel_left: Option<u64>,
    pub engine_faults: u64,
    pub error: Option<String>,
}

/// A family snapshot: the execution state of a delta-eligible program
/// after every unit but the trailing update, plus what that prefix
/// charged, so a delta probe can run under `budget − prefix`.
#[derive(Debug)]
pub struct FamilyEntry {
    /// Arrays, scalars, and counters after the prefix (inputs
    /// included — the update reads them from here, never from the
    /// request).
    pub state: ExecState,
    /// Fuel the prefix charged under the filler's meter; `None` when
    /// the filler ran fuel-unlimited (unmeasurable — fuel-capped
    /// requests must then fall back to a full run).
    pub prefix_fuel: Option<u64>,
    /// Bytes the prefix charged; `None` when the filler ran
    /// mem-unlimited.
    pub prefix_mem: Option<u64>,
}

#[derive(Debug)]
enum SlotState<T> {
    Pending,
    Ready(Arc<T>),
    Failed,
}

/// One result-cache entry: a full outcome or a family snapshot.
#[derive(Debug)]
pub struct Slot<T> {
    state: SlotState<T>,
    /// Install token (the installer's admission ordinal): fills and
    /// fails only land when their token matches, so a filler whose
    /// slot was evicted and re-installed cannot resolve the newcomer.
    token: u64,
    last_used: u64,
    cost: u64,
    /// Ceiling bytes this slot holds — always 0 for full slots; zeroed
    /// when a failure refunds them early, so eviction never
    /// double-refunds.
    bytes: u64,
}

impl<T> Slot<T> {
    fn probe(&self) -> Probe<T> {
        match &self.state {
            SlotState::Pending => Probe::Pending { token: self.token },
            SlotState::Ready(v) => Probe::Ready(Arc::clone(v)),
            SlotState::Failed => Probe::Failed,
        }
    }

    fn pending_as(&self, token: u64) -> bool {
        self.token == token && matches!(self.state, SlotState::Pending)
    }
}

/// What an admission-time probe (or an execution-time peek) found.
#[derive(Debug)]
pub enum Probe<T> {
    Absent,
    /// A filler admitted earlier is still executing; `token`
    /// identifies that install so waiters never block on a
    /// later-admitted re-install.
    Pending {
        token: u64,
    },
    Ready(Arc<T>),
    Failed,
}

/// A value the result cache stores: selects the slot map a generic
/// [`ResultCache`] method addresses.
pub trait Payload: Sized {
    /// The key this payload's slots are stored under.
    type Key: Eq + Hash;

    /// Whether an admission probe of this kind counts a lookup. Only
    /// the full-key probe does: a family probe always follows its
    /// request's full-key probe.
    const COUNTS_LOOKUP: bool;

    /// The map holding this payload's slots.
    fn slots(rc: &mut ResultCache) -> &mut HashMap<Self::Key, Slot<Self>>;
}

impl Payload for CachedOutcome {
    type Key = ResultKey;
    const COUNTS_LOOKUP: bool = true;

    fn slots(rc: &mut ResultCache) -> &mut HashMap<ResultKey, Slot<Self>> {
        &mut rc.full
    }
}

impl Payload for FamilyEntry {
    type Key = FamilyKey;
    const COUNTS_LOOKUP: bool = false;

    fn slots(rc: &mut ResultCache) -> &mut HashMap<FamilyKey, Slot<Self>> {
        &mut rc.family
    }
}

/// The materialized-result cache: full outcomes and family snapshots
/// under one capacity, evicted by the program cache's cost-aware-LRU
/// rule on the shared admission-ordinal clock. Like [`ProgramCache`]
/// it is not internally synchronized; the server wraps it in a
/// `Mutex` paired with a `Condvar` for slot waiters.
///
/// Membership and recency change **only** through the admission-path
/// methods ([`ResultCache::probe`], [`ResultCache::install`]) —
/// eviction is therefore a pure function of the admission sequence.
/// Execution threads resolve slots with [`ResultCache::fill`] and
/// [`ResultCache::fail`], which change state in place and never touch
/// membership. It counts into the `result_cache` section of its
/// ledger, except the realized hit/delta/miss classes, which the
/// server counts as it builds each response.
#[derive(Debug)]
pub struct ResultCache {
    cap: usize,
    full: HashMap<ResultKey, Slot<CachedOutcome>>,
    family: HashMap<FamilyKey, Slot<FamilyEntry>>,
    ledger: Arc<Ledger>,
}

impl ResultCache {
    /// A cache holding at most `cap` entries (full + family combined).
    /// `cap == 0` disables result caching — the server bypasses the
    /// cache entirely, so a zero-cap instance is never touched.
    pub fn new(cap: usize, ledger: Arc<Ledger>) -> ResultCache {
        ResultCache {
            cap,
            full: HashMap::new(),
            family: HashMap::new(),
            ledger,
        }
    }

    /// Admission-time probe: stamps recency on `Ready`, and counts one
    /// lookup when `T` is the full outcome.
    pub fn probe<T: Payload>(&mut self, key: &T::Key, ordinal: u64) -> Probe<T> {
        if T::COUNTS_LOOKUP {
            self.ledger.add(Counter::ResultLookups, 1);
        }
        let Some(slot) = T::slots(self).get_mut(key) else {
            return Probe::Absent;
        };
        if matches!(slot.state, SlotState::Ready(_)) {
            slot.last_used = ordinal;
        }
        slot.probe()
    }

    /// Execution-time peek (no stats, no recency) for waiters parked
    /// on a `Pending` slot.
    pub fn peek<T: Payload>(&mut self, key: &T::Key) -> Probe<T> {
        T::slots(self).get(key).map_or(Probe::Absent, Slot::probe)
    }

    /// Install a `Pending` slot holding `bytes` of (already
    /// ceiling-reserved) memory — 0 for full outcomes. The installing
    /// request becomes the slot's filler. A `Failed` tombstone is
    /// replaced in place (its bytes were refunded when it failed, so
    /// only the difference counts); a new key first evicts to capacity.
    /// Returns the family bytes the install freed, which the server
    /// refunds to the ceiling.
    pub fn install<T: Payload>(&mut self, key: T::Key, ordinal: u64, cost: u64, bytes: u64) -> u64 {
        let slot = Slot {
            state: SlotState::Pending,
            token: ordinal,
            last_used: ordinal,
            cost: cost.max(1),
            bytes,
        };
        let freed = if let Some(old) = T::slots(self).get_mut(&key) {
            let freed = std::mem::replace(old, slot).bytes;
            self.ledger.sub(Counter::ResultResidentBytes, freed);
            freed
        } else {
            let freed = self.evict_to_cap();
            T::slots(self).insert(key, slot);
            self.ledger.add(Counter::ResultLive, 1);
            freed
        };
        self.ledger.add(Counter::ResultResidentBytes, bytes);
        freed
    }

    /// Resolve a `Pending` slot to `Ready`. Lands only when the slot
    /// still exists, is pending, and carries `token` (otherwise the
    /// slot was evicted or re-installed and the fill is dropped — a
    /// dropped family fill wastes only the snapshot clone, its bytes
    /// were refunded at eviction). Returns whether it landed.
    pub fn fill<T: Payload>(&mut self, key: &T::Key, token: u64, value: Arc<T>) -> bool {
        let Some(slot) = T::slots(self).get_mut(key).filter(|s| s.pending_as(token)) else {
            return false;
        };
        slot.state = SlotState::Ready(value);
        self.ledger.add(Counter::ResultInsertions, 1);
        true
    }

    /// Resolve a `Pending` slot to `Failed` (the filler died without a
    /// value), releasing its bytes early. Token-gated like
    /// [`ResultCache::fill`]. Returns the bytes the caller must refund
    /// to the ceiling (0 when the fail did not land).
    pub fn fail<T: Payload>(&mut self, key: &T::Key, token: u64) -> u64 {
        let Some(slot) = T::slots(self).get_mut(key).filter(|s| s.pending_as(token)) else {
            return 0;
        };
        slot.state = SlotState::Failed;
        let bytes = std::mem::take(&mut slot.bytes);
        self.ledger.sub(Counter::ResultResidentBytes, bytes);
        bytes
    }

    /// Evict until there is room for one more entry, returning the
    /// family bytes freed. The victim rule
    /// is the program cache's across both maps, full before family on
    /// equal ranks.
    /// Pending slots are evicted like any other — membership must stay
    /// a pure function of the admission sequence, and fillers/waiters
    /// tolerate a vanished slot (token-gated fills drop; waiters fall
    /// back to a full run).
    fn evict_to_cap(&mut self) -> u64 {
        let mut freed = 0;
        while self.cap > 0 && self.full.len() + self.family.len() >= self.cap {
            let full = victim(self.full.iter().map(|(k, s)| (k, s.last_used, s.cost)));
            let family = victim(self.family.iter().map(|(k, s)| (k, s.last_used, s.cost)));
            let full = full.filter(|(rank, _)| family.as_ref().is_none_or(|(f, _)| rank <= f));
            if let Some((_, key)) = full {
                let key = key.clone();
                self.full.remove(&key);
            } else if let Some((_, key)) = family {
                let key = key.clone();
                let slot = self.family.remove(&key).expect("victim exists");
                self.ledger.sub(Counter::ResultResidentBytes, slot.bytes);
                freed += slot.bytes;
            } else {
                break;
            }
            self.ledger.add(Counter::ResultEvictions, 1);
            self.ledger.sub(Counter::ResultLive, 1);
        }
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_core::pipeline::{compile, CompileOptions};
    use hac_lang::env::ConstEnv;

    fn program_cache(cap: usize) -> (ProgramCache, Arc<Ledger>) {
        let ledger = Arc::new(Ledger::default());
        (ProgramCache::new(cap, Arc::clone(&ledger)), ledger)
    }

    fn result_cache(cap: usize) -> (ResultCache, Arc<Ledger>) {
        let ledger = Arc::new(Ledger::default());
        (ResultCache::new(cap, Arc::clone(&ledger)), ledger)
    }

    /// The typed keys the tests draw from: one per `n`.
    fn pkey(n: u64) -> ProgramKey {
        let params = [("n".to_string(), n as i64)];
        ProgramKey::new(Arc::from("src"), &params, ExecMode::Auto, Engine::Tape)
    }

    fn rkey(n: u64) -> ResultKey {
        ResultKey {
            program: pkey(n),
            seed: 0,
            limits: Limits::unlimited(),
        }
    }

    fn fkey(n: u64) -> FamilyKey {
        FamilyKey::new(&pkey(n), &[], 0)
    }

    fn compiled(n: i64) -> Arc<Compiled> {
        let src = "param n;\nlet a = array (1,2) [ i := n | i <- [1..2] ];\n";
        let program = hac_lang::parser::parse_program(src).unwrap();
        let mut env = ConstEnv::new();
        env.bind("n", n);
        Arc::new(compile(&program, &env, &CompileOptions::default()).unwrap())
    }

    #[test]
    fn capacity_is_respected_and_counters_reconcile() {
        let (mut c, l) = program_cache(3);
        let p = compiled(1);
        for key in 0..10u64 {
            assert!(c.lookup(&pkey(key), key).is_none());
            c.insert(pkey(key), Arc::clone(&p), key);
            assert!(c.len() <= 3, "cap exceeded at key {key}");
        }
        let lookups = l.get(Counter::CacheLookups);
        assert_eq!(lookups, 10);
        assert_eq!(
            l.get(Counter::CacheHits) + l.get(Counter::CacheMisses),
            lookups
        );
        let live = l.get(Counter::CacheLive);
        assert_eq!(
            l.get(Counter::CacheInsertions) - l.get(Counter::CacheEvictions),
            live
        );
        assert_eq!(live, 3);
        assert_eq!(l.get(Counter::CacheEvictions), 7);
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let (mut c, _) = program_cache(2);
        let p = compiled(1);
        c.insert(pkey(10), Arc::clone(&p), 0);
        c.insert(pkey(20), Arc::clone(&p), 1);
        // Touch 10 so 20 becomes the LRU victim.
        assert!(c.lookup(&pkey(10), 2).is_some());
        c.insert(pkey(30), Arc::clone(&p), 3);
        assert!(c.lookup(&pkey(10), 4).is_some());
        assert!(c.lookup(&pkey(20), 5).is_none(), "20 was evicted");
        assert!(c.lookup(&pkey(30), 6).is_some());
    }

    #[test]
    fn zero_cap_is_unbounded() {
        let (mut c, l) = program_cache(0);
        let p = compiled(1);
        for key in 0..100u64 {
            c.insert(pkey(key), Arc::clone(&p), key);
        }
        assert_eq!(c.len(), 100);
        assert_eq!(l.get(Counter::CacheEvictions), 0);
    }

    #[test]
    fn reinserting_a_key_refreshes_without_eviction() {
        let (mut c, l) = program_cache(2);
        let p = compiled(1);
        c.insert(pkey(1), Arc::clone(&p), 0);
        c.insert(pkey(2), Arc::clone(&p), 1);
        assert_eq!(c.insert(pkey(1), Arc::clone(&p), 2), 0);
        assert_eq!(c.len(), 2);
        assert_eq!(
            l.get(Counter::CacheInsertions),
            2,
            "refresh is not an insertion"
        );
    }

    fn outcome() -> Arc<CachedOutcome> {
        Arc::new(CachedOutcome {
            status: Status::Ok,
            answer_digest: Some("d".to_string()),
            counters_digest: Some("c".to_string()),
            fuel_left: None,
            engine_faults: 0,
            error: None,
        })
    }

    fn family() -> Arc<FamilyEntry> {
        Arc::new(FamilyEntry {
            state: ExecState::default(),
            prefix_fuel: Some(3),
            prefix_mem: None,
        })
    }

    #[test]
    fn result_slots_resolve_through_the_pending_protocol() {
        let (mut c, l) = result_cache(8);
        assert!(matches!(
            c.probe::<CachedOutcome>(&rkey(7), 0),
            Probe::Absent
        ));
        c.install::<CachedOutcome>(rkey(7), 0, 2, 0);
        assert!(matches!(
            c.probe::<CachedOutcome>(&rkey(7), 1),
            Probe::Pending { token: 0 }
        ));
        assert!(c.fill(&rkey(7), 0, outcome()));
        assert!(matches!(
            c.probe::<CachedOutcome>(&rkey(7), 2),
            Probe::Ready(_)
        ));
        // A second fill with a stale token is dropped.
        assert!(!c.fill(&rkey(7), 0, outcome()));
        assert_eq!(
            (
                l.get(Counter::ResultLookups),
                l.get(Counter::ResultInsertions),
                l.get(Counter::ResultLive)
            ),
            (3, 1, 1)
        );
    }

    #[test]
    fn failed_slots_are_tombstones_until_reinstalled() {
        let (mut c, l) = result_cache(8);
        c.install::<CachedOutcome>(rkey(7), 0, 1, 0);
        c.fail::<CachedOutcome>(&rkey(7), 0);
        assert!(matches!(
            c.probe::<CachedOutcome>(&rkey(7), 1),
            Probe::Failed
        ));
        // Re-install in place: no membership change, fresh token.
        assert_eq!(c.install::<CachedOutcome>(rkey(7), 2, 1, 0), 0);
        assert_eq!(l.get(Counter::ResultEvictions), 0);
        assert!(matches!(
            c.probe::<CachedOutcome>(&rkey(7), 3),
            Probe::Pending { token: 2 }
        ));
        assert_eq!(l.get(Counter::ResultLive), 1);
    }

    #[test]
    fn family_bytes_are_charged_and_refunded_exactly_once() {
        let (mut c, l) = result_cache(8);
        c.install::<FamilyEntry>(fkey(9), 0, 1, 640);
        assert_eq!(l.get(Counter::ResultResidentBytes), 640);
        // Failure refunds early; the tombstone holds nothing.
        assert_eq!(c.fail::<FamilyEntry>(&fkey(9), 0), 640);
        assert_eq!(l.get(Counter::ResultResidentBytes), 0);
        // A stale fail (wrong token) refunds nothing.
        assert_eq!(c.fail::<FamilyEntry>(&fkey(9), 0), 0);
        // Re-install charges again; fill keeps the charge resident.
        c.install::<FamilyEntry>(fkey(9), 1, 1, 640);
        assert!(c.fill(&fkey(9), 1, family()));
        assert_eq!(l.get(Counter::ResultResidentBytes), 640);
        assert!(matches!(
            c.probe::<FamilyEntry>(&fkey(9), 2),
            Probe::Ready(_)
        ));
    }

    #[test]
    fn eviction_spans_both_maps_and_frees_family_bytes() {
        let (mut c, l) = result_cache(2);
        c.install::<CachedOutcome>(rkey(1), 0, 1, 0);
        assert!(c.fill(&rkey(1), 0, outcome()));
        c.install::<FamilyEntry>(fkey(2), 1, 1, 100);
        assert!(c.fill(&fkey(2), 1, family()));
        // Touch the family entry so the full entry is the victim.
        assert!(matches!(
            c.probe::<FamilyEntry>(&fkey(2), 2),
            Probe::Ready(_)
        ));
        assert_eq!(c.install::<CachedOutcome>(rkey(3), 3, 1, 0), 0);
        assert_eq!(l.get(Counter::ResultEvictions), 1);
        assert!(matches!(
            c.probe::<CachedOutcome>(&rkey(1), 4),
            Probe::Absent
        ));
        // Now the family snapshot is the stalest; evicting it frees
        // its bytes for the caller to refund.
        assert!(matches!(
            c.probe::<CachedOutcome>(&rkey(3), 5),
            Probe::Pending { .. }
        ));
        assert_eq!(c.install::<CachedOutcome>(rkey(4), 6, 1, 0), 100);
        assert_eq!(l.get(Counter::ResultResidentBytes), 0);
        assert_eq!(
            (l.get(Counter::ResultEvictions), l.get(Counter::ResultLive)),
            (2, 2)
        );
    }

    #[test]
    fn capacity_holds_while_one_map_is_empty() {
        let (mut c, l) = result_cache(1);
        c.install::<CachedOutcome>(rkey(1), 0, 1, 0);
        // The family map is empty, yet installing into it must still
        // evict the full entry to stay within capacity.
        assert_eq!(c.install::<FamilyEntry>(fkey(2), 0, 1, 64), 0);
        assert_eq!(l.get(Counter::ResultEvictions), 1);
        assert_eq!(
            (
                l.get(Counter::ResultLive),
                l.get(Counter::ResultResidentBytes)
            ),
            (1, 64)
        );
    }
}
