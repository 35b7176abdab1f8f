//! Resource governance: fuel and memory metering plus deterministic
//! fault injection.
//!
//! The paper's compiler removes *safety* checks (collisions, empties)
//! where a static proof exists; the production dual is *resource*
//! checks that cannot be compiled away. A [`Meter`] charges an op
//! budget ("fuel") at loop heads and call sites and a byte budget on
//! array/thunk allocation, turning runaway programs into structured
//! [`RuntimeError`](crate::error::RuntimeError)s instead of hung or
//! OOM-killed processes.
//!
//! Determinism is the design constraint throughout: a metered run must
//! fail at exactly the same point on every engine and every thread
//! count, so limits are expressed in engine-independent units (taken
//! loop iterations, function calls, payload bytes) and the parallel
//! engine splits budgets per chunk by *static* per-iteration cost.
//!
//! [`FaultPlan`] is the matching test harness: a config-injected,
//! seedable plan that fires worker panics or allocation failures at
//! chosen (region, chunk) coordinates — no wall clock, no RNG at
//! runtime — so fault-tolerance paths can be exercised differentially.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::RuntimeError;

/// Caps on a single run. `None` means unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Limits {
    /// Op budget: one unit per taken loop iteration and per function
    /// call, identical across engines.
    pub fuel: Option<u64>,
    /// Byte budget for array element storage, thunks, and
    /// accumulators.
    pub mem_bytes: Option<u64>,
}

impl Limits {
    /// No caps at all.
    pub fn unlimited() -> Self {
        Limits::default()
    }
}

/// Sentinel for "no limit": 2^64 units are unreachable in practice,
/// so the hot path can decrement unconditionally.
const UNLIMITED: u64 = u64::MAX;

/// Fuel units a lazily-drawing meter pulls from the ceiling per refill
/// (see [`Meter::admit`]). The block size never changes *which* charge
/// exhausts — only how often the shared pool is touched — because a
/// draw hands every obtained unit to the local counter and the final
/// failing draw happens exactly when the pool is empty.
const FUEL_BLOCK: u64 = 1024;

/// A process-wide resource pool shared by every concurrent request:
/// one atomic counter per resource.
///
/// Reservations are **all-or-nothing**: a request either obtains its
/// full amount in one compare-and-swap loop or nothing, so the sum of
/// outstanding grants can never exceed the initial pool, and a
/// reservation fails only when the pool holds less than it asks for.
///
/// **Settlement rule** (what keeps exhaustion bit-identical at any
/// thread count): a request's *own* exhaustion point is governed
/// solely by its local [`Meter`] counters, which are fixed at
/// admission — the ceiling is only touched at admission (reserve),
/// refill (lazy draws, see below), and settlement (refund). On
/// settlement, unspent **fuel** returns to the pool (spent fuel is
/// gone: the pool bounds total ops the process executes) and reserved
/// **memory** returns in full (the pool bounds *concurrent* residency).
/// After every admitted request settles, `fuel_available()` equals the
/// initial pool minus the exact sequential fuel spend of each request,
/// and `mem_available()` equals the initial pool — independent of
/// thread interleaving or engine.
///
/// A request admitted with *no* local fuel cap under a finite fuel
/// ceiling draws blocks lazily instead; its exhaustion point then
/// depends on what sibling requests have drawn (documented
/// admission-order dependence — give requests their own budgets when
/// isolation matters).
#[derive(Debug)]
pub struct SharedCeiling {
    /// Fuel in the pool; [`UNLIMITED`] (and never touched) when uncapped.
    fuel: AtomicU64,
    /// Memory bytes in the pool; [`UNLIMITED`] when uncapped.
    mem: AtomicU64,
    fuel_capped: bool,
    mem_capped: bool,
    /// Monotonic reservation ordinal handed out per admission attempt
    /// (see [`SharedCeiling::take_ordinal`]).
    ordinal: AtomicU64,
}

impl SharedCeiling {
    /// A pool holding `limits`. `None` caps are truly uncapped:
    /// reservations against them always succeed and never touch an
    /// atomic.
    pub fn new(limits: Limits) -> Arc<SharedCeiling> {
        let fuel = limits.fuel.unwrap_or(UNLIMITED);
        let mem = limits.mem_bytes.unwrap_or(UNLIMITED);
        Arc::new(SharedCeiling {
            fuel: AtomicU64::new(fuel),
            mem: AtomicU64::new(mem),
            fuel_capped: fuel != UNLIMITED,
            mem_capped: mem != UNLIMITED,
            ordinal: AtomicU64::new(0),
        })
    }

    /// Hand out the next reservation ordinal (0, 1, 2, …). The serving
    /// layer stamps every admission attempt with one of these so that
    /// cache recency, fair-scheduler bookkeeping, and the per-response
    /// `admitted` field are all expressed in *admission order* — a pure
    /// function of the request sequence, never the clock. Callers that
    /// admit sequentially (queue order or a fair schedule) therefore
    /// get bit-reproducible ordinals across runs.
    pub fn take_ordinal(&self) -> u64 {
        self.ordinal.fetch_add(1, Ordering::Relaxed)
    }

    /// How many reservation ordinals have been handed out so far
    /// (racy snapshot; exact when quiescent).
    pub fn reservations(&self) -> u64 {
        self.ordinal.load(Ordering::Relaxed)
    }

    /// Whether the pool caps fuel at all.
    pub fn fuel_capped(&self) -> bool {
        self.fuel_capped
    }

    /// Whether the pool caps memory at all.
    pub fn mem_capped(&self) -> bool {
        self.mem_capped
    }

    /// Fuel currently in the pool (racy snapshot; exact when quiescent).
    pub fn fuel_available(&self) -> u64 {
        self.fuel.load(Ordering::Relaxed)
    }

    /// Memory currently in the pool (racy snapshot; exact when
    /// quiescent).
    pub fn mem_available(&self) -> u64 {
        self.mem.load(Ordering::Relaxed)
    }

    /// Take exactly `amount` units from `pool`, or nothing when it
    /// holds less.
    fn take(pool: &AtomicU64, amount: u64) -> bool {
        pool.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
            cur.checked_sub(amount)
        })
        .is_ok()
    }

    /// Take up to [`FUEL_BLOCK`] fuel units (not all-or-nothing): the
    /// lazy-draw path. Returns what it got, possibly 0.
    fn draw_fuel_block(&self) -> u64 {
        let prev = self
            .fuel
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_sub(FUEL_BLOCK))
            })
            .unwrap_or_else(|cur| cur);
        prev.min(FUEL_BLOCK)
    }

    /// Reserve `amount` fuel units, all-or-nothing.
    pub fn reserve_fuel(&self, amount: u64) -> bool {
        !self.fuel_capped || Self::take(&self.fuel, amount)
    }

    /// Reserve `amount` memory bytes, all-or-nothing.
    pub fn reserve_mem(&self, amount: u64) -> bool {
        !self.mem_capped || Self::take(&self.mem, amount)
    }

    /// Return `amount` fuel units to the pool.
    pub fn refund_fuel(&self, amount: u64) {
        if self.fuel_capped {
            self.fuel.fetch_add(amount, Ordering::Relaxed);
        }
    }

    /// Return `amount` memory bytes to the pool.
    pub fn refund_mem(&self, amount: u64) {
        if self.mem_capped {
            self.mem.fetch_add(amount, Ordering::Relaxed);
        }
    }
}

/// A [`Meter`]'s hold on a [`SharedCeiling`]: what was reserved at
/// admission and what has been drawn lazily since, so settlement can
/// refund exactly the right amount. Deliberately not `Clone` — a
/// reservation must be settled exactly once.
#[derive(Debug)]
struct Lease {
    ceiling: Arc<SharedCeiling>,
    /// Fuel reserved all-or-nothing at admission (finite local cap).
    fuel_reserved: u64,
    /// Memory reserved all-or-nothing at admission (finite local cap).
    mem_reserved: u64,
    /// No local fuel cap: draw [`FUEL_BLOCK`]-sized refills on demand.
    lazy_fuel: bool,
    /// No local memory cap: draw exact byte amounts on demand.
    lazy_mem: bool,
    /// Total lazily drawn fuel (for settlement accounting).
    lazy_fuel_drawn: u64,
    /// Total lazily drawn memory.
    lazy_mem_drawn: u64,
}

/// A running budget, charged as the engines execute.
///
/// One meter spans a whole pipeline run (all units share the budget).
/// The parallel engine derives per-chunk sub-meters with
/// [`Meter::sub_meter`] so exhaustion lands on the same iteration
/// ordinal as a sequential run. A meter admitted against a
/// [`SharedCeiling`] additionally holds a lease on the global pool;
/// see [`Meter::admit`] and [`Meter::settle`].
#[derive(Debug)]
pub struct Meter {
    fuel_left: u64,
    fuel_limit: u64,
    mem_left: u64,
    mem_limit: u64,
    lease: Option<Box<Lease>>,
}

impl Default for Meter {
    fn default() -> Self {
        Meter::unlimited()
    }
}

impl Clone for Meter {
    /// Cloning yields a counter snapshot for deriving chunk sub-meters.
    /// The ceiling lease stays with the original: a reservation must be
    /// settled (refunded) exactly once, so a clone never carries one.
    fn clone(&self) -> Meter {
        Meter {
            fuel_left: self.fuel_left,
            fuel_limit: self.fuel_limit,
            mem_left: self.mem_left,
            mem_limit: self.mem_limit,
            lease: None,
        }
    }
}

impl Meter {
    /// A meter that never trips.
    pub fn unlimited() -> Self {
        Meter {
            fuel_left: UNLIMITED,
            fuel_limit: UNLIMITED,
            mem_left: UNLIMITED,
            mem_limit: UNLIMITED,
            lease: None,
        }
    }

    /// A meter enforcing `limits`, unbacked by any global pool.
    pub fn new(limits: Limits) -> Self {
        Meter {
            fuel_left: limits.fuel.unwrap_or(UNLIMITED),
            fuel_limit: limits.fuel.unwrap_or(UNLIMITED),
            mem_left: limits.mem_bytes.unwrap_or(UNLIMITED),
            mem_limit: limits.mem_bytes.unwrap_or(UNLIMITED),
            lease: None,
        }
    }

    /// Admit a request: build a meter enforcing `limits` whose budget
    /// is covered by `ceiling`.
    ///
    /// Finite local caps are reserved from the pool **all-or-nothing
    /// up front**, so the request's exhaustion point afterwards depends
    /// only on its own counters — bit-identical at any thread count,
    /// independent of sibling requests. A resource with
    /// no local cap under a capped pool instead *draws lazily* (fuel in
    /// [`FUEL_BLOCK`] refills, memory by exact byte amounts); such a
    /// meter's exhaustion point is admission-order dependent and the
    /// parallel engine runs its regions sequentially
    /// ([`Meter::draws_lazily`]).
    ///
    /// # Errors
    /// [`RuntimeError::CeilingExhausted`] when the pool cannot cover a
    /// requested reservation (nothing is held on failure).
    pub fn admit(limits: Limits, ceiling: &Arc<SharedCeiling>) -> Result<Meter, RuntimeError> {
        let mut lease = Lease {
            ceiling: Arc::clone(ceiling),
            fuel_reserved: 0,
            mem_reserved: 0,
            lazy_fuel: false,
            lazy_mem: false,
            lazy_fuel_drawn: 0,
            lazy_mem_drawn: 0,
        };
        let mut m = Meter::new(limits);
        if ceiling.fuel_capped() {
            match limits.fuel {
                Some(f) => {
                    if !ceiling.reserve_fuel(f) {
                        return Err(RuntimeError::CeilingExhausted {
                            resource: "fuel",
                            requested: f,
                            available: ceiling.fuel_available(),
                        });
                    }
                    lease.fuel_reserved = f;
                }
                None => {
                    lease.lazy_fuel = true;
                    m.fuel_left = 0;
                }
            }
        }
        if ceiling.mem_capped() {
            match limits.mem_bytes {
                Some(b) => {
                    if !ceiling.reserve_mem(b) {
                        // Roll back the fuel hold: admission is
                        // all-or-nothing across both resources.
                        ceiling.refund_fuel(lease.fuel_reserved);
                        return Err(RuntimeError::CeilingExhausted {
                            resource: "memory",
                            requested: b,
                            available: ceiling.mem_available(),
                        });
                    }
                    lease.mem_reserved = b;
                }
                None => lease.lazy_mem = true,
            }
        }
        if lease.fuel_reserved > 0 || lease.mem_reserved > 0 || lease.lazy_fuel || lease.lazy_mem {
            m.lease = Some(Box::new(lease));
        }
        Ok(m)
    }

    /// Settle the meter's ceiling lease: unspent fuel and *all*
    /// reserved/drawn memory return to the pool (see the
    /// [`SharedCeiling`] settlement rule). Idempotent; a no-op for
    /// meters without a lease.
    pub fn settle(&mut self) {
        let Some(lease) = self.lease.take() else {
            return;
        };
        let fuel_held = lease.fuel_reserved + lease.lazy_fuel_drawn;
        lease.ceiling.refund_fuel(self.fuel_left.min(fuel_held));
        lease
            .ceiling
            .refund_mem(lease.mem_reserved + lease.lazy_mem_drawn);
    }

    /// Whether this meter refills its fuel from the ceiling on demand
    /// (no local cap under a capped pool). Such budgets cannot be split
    /// statically, so parallel regions must run sequentially.
    #[inline]
    pub fn draws_lazily(&self) -> bool {
        self.lease.as_ref().is_some_and(|l| l.lazy_fuel)
    }

    /// Whether this meter draws memory from the ceiling by exact byte
    /// amounts (no local cap under a mem-capped pool). Like lazy fuel,
    /// such a meter's exhaustion point depends on sibling requests, so
    /// layers that need outcome purity (the result cache) must treat
    /// the run as unrepeatable.
    #[inline]
    pub fn draws_mem_lazily(&self) -> bool {
        self.lease.as_ref().is_some_and(|l| l.lazy_mem)
    }

    /// Whether a finite fuel cap is in force.
    #[inline]
    pub fn fuel_limited(&self) -> bool {
        self.fuel_limit != UNLIMITED
    }

    /// Fuel remaining (meaningless when unlimited).
    #[inline]
    pub fn fuel_left(&self) -> u64 {
        self.fuel_left
    }

    /// Whether a finite memory cap is in force.
    #[inline]
    pub fn mem_limited(&self) -> bool {
        self.mem_limit != UNLIMITED
    }

    /// Memory budget remaining in bytes (meaningless when unlimited).
    /// With [`Meter::mem_limited`], `limit − mem_left` measures the
    /// bytes a run charged so far — the serving layer's delta path
    /// prices cached prefixes this way.
    #[inline]
    pub fn mem_left(&self) -> u64 {
        self.mem_left
    }

    /// Whether `fuel` units and `bytes` of memory can be charged without
    /// tripping a limit or drawing on a ceiling. When they can, the
    /// order of those charges cannot change any outcome.
    pub fn covers(&self, fuel: u64, bytes: u64) -> bool {
        !self.draws_lazily()
            && !self.draws_mem_lazily()
            && (!self.fuel_limited() || self.fuel_left >= fuel)
            && (!self.mem_limited() || self.mem_left >= bytes)
    }

    /// Charge one fuel unit. The unlimited case still decrements —
    /// 2^64 charges are unreachable, and skipping the branch keeps
    /// the hot path to a single compare.
    #[inline]
    pub fn charge_fuel(&mut self) -> Result<(), RuntimeError> {
        if self.fuel_left == 0 {
            return self.refill_or_exhaust();
        }
        self.fuel_left -= 1;
        Ok(())
    }

    /// The empty-counter path: refill from a lazy ceiling lease, or
    /// report exhaustion.
    #[cold]
    fn refill_or_exhaust(&mut self) -> Result<(), RuntimeError> {
        if let Some(lease) = self.lease.as_mut() {
            if lease.lazy_fuel {
                let got = lease.ceiling.draw_fuel_block();
                if got > 0 {
                    lease.lazy_fuel_drawn += got;
                    self.fuel_left = got - 1;
                    return Ok(());
                }
                return Err(RuntimeError::CeilingExhausted {
                    resource: "fuel",
                    requested: 1,
                    available: 0,
                });
            }
        }
        Err(RuntimeError::FuelExhausted {
            limit: self.fuel_limit,
        })
    }

    /// Deduct `n` fuel units without an exhaustion check (used when a
    /// parallel region completes and its statically known cost is
    /// settled against the main meter).
    #[inline]
    pub fn consume_fuel(&mut self, n: u64) {
        self.fuel_left = self.fuel_left.saturating_sub(n);
    }

    /// Charge fuel for `n` loop iterations in one settlement, exactly
    /// as `n` consecutive [`Meter::charge_fuel`] calls would. Returns
    /// the number of iterations covered; when short of `n`, also the
    /// error the `(covered + 1)`-th per-iteration charge would have
    /// raised, with the meter left in the identical state. The fused
    /// vector kernels use this so bulk charging is observationally
    /// indistinguishable from the scalar dispatch loop.
    ///
    /// Lazily-drawing meters (serve-layer ceiling leases) cannot be
    /// settled in one subtraction without replaying refill boundaries,
    /// so for those the charges are simply taken one at a time.
    ///
    /// Reduction kernels (`Sum`/`Dot`/`MulAddAcc` and the reduction
    /// arm of the generic micro-kernel) price exactly like the
    /// elementwise ones: one unit per taken iteration, nothing extra
    /// for the carried fold — the scalar tape charges the `LoopHead`
    /// once per iteration and the body ops are free, so the closed
    /// form for any fused shape is just the iteration count. On a
    /// shortfall the kernel is obliged to have stored exactly
    /// `covered` partial results and to leave the carried cell equal
    /// to the scalar tape's after `covered` iterations; this method
    /// guarantees the meter half of that bargain — identical error,
    /// identical residual fuel, identical ceiling bookkeeping.
    pub fn charge_fuel_block(&mut self, n: u64) -> (u64, Option<RuntimeError>) {
        // Lazy leases have `fuel_limit == UNLIMITED` (the ceiling is
        // the cap, not a local budget), so this test must come before
        // the unlimited fast path or the pool never sees the draws.
        if self.draws_lazily() {
            for k in 0..n {
                if let Err(e) = self.charge_fuel() {
                    return (k, Some(e));
                }
            }
            return (n, None);
        }
        if !self.fuel_limited() {
            // Unlimited meters never observe `fuel_left`; skip the
            // sentinel decrements (the scalar loop performs them, but
            // no report or settlement ever reads them back).
            return (n, None);
        }
        if self.fuel_left >= n {
            self.fuel_left -= n;
            return (n, None);
        }
        let done = self.fuel_left;
        self.fuel_left = 0;
        // The failing charge goes through the real path so the error
        // (and any ceiling bookkeeping) matches the scalar loop.
        match self.charge_fuel() {
            Err(e) => (done, Some(e)),
            Ok(()) => {
                // A refill landed (meter gained a lease mid-run); settle
                // the remainder against the refreshed balance.
                let (more, err) = self.charge_fuel_block(n - done - 1);
                (done + 1 + more, err)
            }
        }
    }

    /// Charge `bytes` against the memory budget.
    #[inline]
    pub fn charge_mem(&mut self, bytes: u64) -> Result<(), RuntimeError> {
        if self.mem_limit == UNLIMITED {
            if let Some(lease) = self.lease.as_mut() {
                if lease.lazy_mem {
                    if lease.ceiling.reserve_mem(bytes) {
                        lease.lazy_mem_drawn += bytes;
                        return Ok(());
                    }
                    return Err(RuntimeError::CeilingExhausted {
                        resource: "memory",
                        requested: bytes,
                        available: lease.ceiling.mem_available(),
                    });
                }
            }
            return Ok(());
        }
        if bytes > self.mem_left {
            return Err(RuntimeError::MemLimitExceeded {
                limit: self.mem_limit,
                used: self.mem_limit - self.mem_left,
                requested: bytes,
            });
        }
        self.mem_left -= bytes;
        Ok(())
    }

    /// Overwrite the remaining fuel. Used by the parallel engine when a
    /// chunk faults: the main meter is settled to the faulting chunk's
    /// remainder, which equals what a sequential run would have left at
    /// the same op.
    #[inline]
    pub fn set_fuel_left(&mut self, n: u64) {
        self.fuel_left = n;
    }

    /// A chunk-local meter holding `fuel_left` units but reporting the
    /// *original* limit on exhaustion, so the error payload is
    /// identical to a sequential run's. Memory is never charged inside
    /// parallel chunks, so the sub-meter carries no memory budget — and
    /// no ceiling lease (the parent's reservation already covers the
    /// chunk's spend).
    pub fn sub_meter(&self, fuel_left: u64) -> Meter {
        Meter {
            fuel_left,
            fuel_limit: self.fuel_limit,
            mem_left: UNLIMITED,
            mem_limit: UNLIMITED,
            lease: None,
        }
    }
}

/// What an injected fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the worker (exercises `catch_unwind` isolation
    /// and the sequential retry).
    Panic,
    /// Simulated allocation failure: the chunk aborts without
    /// producing output (exercises the discard-and-retry path).
    AllocFail,
}

/// A single injection point: fire `kind` when parallel region number
/// `region` (0-based, in execution order) runs chunk `chunk`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPoint {
    pub region: u64,
    pub chunk: u64,
    pub kind: FaultKind,
}

/// A deterministic fault-injection plan.
///
/// Parsed from `--fault-plan` (or a daemon's `--chaos-plan` engine
/// tokens) and installed through `RunOptions::faults`,
/// `ServeOptions::faults` or `Vm::with_faults`:
/// comma-separated `r<R>c<C>:panic` or `r<R>c<C>:allocfail` points,
/// the token `nosnapshot` to disable pre-region snapshots, or
/// `seed:<u64>` to expand a handful of pseudo-random points from an
/// LCG — everything is fixed before the run starts, nothing consults
/// the clock or an RNG at runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    pub points: Vec<FaultPoint>,
    /// Snapshot written-to buffers before a region that is not
    /// provably retry-safe, so an injected fault can still fall back
    /// to sequential re-execution. Defaults to `true`; costs nothing
    /// when no plan is installed.
    pub snapshot: bool,
}

impl Default for FaultPlan {
    /// An empty plan: no injection points, snapshots enabled. Like no
    /// plan at all, it injects nothing.
    fn default() -> Self {
        FaultPlan {
            points: Vec::new(),
            snapshot: true,
        }
    }
}

impl FaultPlan {
    /// The fault scheduled for `(region, chunk)`, if any.
    pub fn lookup(&self, region: u64, chunk: u64) -> Option<FaultKind> {
        self.points
            .iter()
            .find(|p| p.region == region && p.chunk == chunk)
            .map(|p| p.kind)
    }

    /// Whether the plan differs from the empty one: it injects a fault
    /// somewhere or disables snapshots. Runs under an active plan are
    /// not pure functions of their request, so the serving layer's
    /// result cache bypasses them.
    pub fn is_active(&self) -> bool {
        !self.points.is_empty() || !self.snapshot
    }

    /// Parse the `--fault-plan` spec format. Returns `Err` with a
    /// human-readable message on malformed input.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            plan.parse_token(tok)?;
        }
        Ok(plan)
    }

    /// Parse one comma-separated token of the fault-plan grammar into
    /// this plan: `r<R>c<C>:panic|allocfail`, `nosnapshot`, or
    /// `seed:<u64>`. Exposed so layered grammars (the serve crate's
    /// connection-coordinate chaos plan) can forward the engine-level
    /// tokens of a combined spec here and keep one vocabulary.
    ///
    /// # Errors
    /// A human-readable message on a malformed token.
    pub fn parse_token(&mut self, tok: &str) -> Result<(), String> {
        if tok == "nosnapshot" {
            self.snapshot = false;
            return Ok(());
        }
        if let Some(seed) = tok.strip_prefix("seed:") {
            let seed: u64 = seed
                .parse()
                .map_err(|_| format!("bad fault seed `{tok}`"))?;
            self.points.extend(seeded_points(seed));
            return Ok(());
        }
        let rest = tok
            .strip_prefix('r')
            .ok_or_else(|| format!("bad fault point `{tok}` (want r<R>c<C>:panic)"))?;
        let (coords, kind) = rest
            .split_once(':')
            .ok_or_else(|| format!("bad fault point `{tok}` (missing `:kind`)"))?;
        let (region, chunk) = coords
            .split_once('c')
            .ok_or_else(|| format!("bad fault point `{tok}` (want r<R>c<C>)"))?;
        let region: u64 = region
            .parse()
            .map_err(|_| format!("bad region in `{tok}`"))?;
        let chunk: u64 = chunk.parse().map_err(|_| format!("bad chunk in `{tok}`"))?;
        let kind = match kind {
            "panic" => FaultKind::Panic,
            "allocfail" => FaultKind::AllocFail,
            other => return Err(format!("unknown fault kind `{other}`")),
        };
        self.points.push(FaultPoint {
            region,
            chunk,
            kind,
        });
        Ok(())
    }
}

/// Expand a seed into a small deterministic set of fault points with
/// an LCG (Knuth's MMIX constants). Regions and chunks are kept small
/// so the points actually land on real kernels.
fn seeded_points(seed: u64) -> Vec<FaultPoint> {
    let mut state = seed;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    (0..4)
        .map(|_| {
            let region = next() % 8;
            let chunk = next() % 8;
            let kind = if next() % 2 == 0 {
                FaultKind::Panic
            } else {
                FaultKind::AllocFail
            };
            FaultPoint {
                region,
                chunk,
                kind,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuel_trips_at_zero_with_original_limit() {
        let mut m = Meter::new(Limits {
            fuel: Some(3),
            mem_bytes: None,
        });
        assert!(m.charge_fuel().is_ok());
        assert!(m.charge_fuel().is_ok());
        assert!(m.charge_fuel().is_ok());
        assert_eq!(
            m.charge_fuel(),
            Err(RuntimeError::FuelExhausted { limit: 3 })
        );
        // Exhausted meters stay exhausted.
        assert!(m.charge_fuel().is_err());
    }

    #[test]
    fn unlimited_meter_never_trips() {
        let mut m = Meter::unlimited();
        for _ in 0..10_000 {
            assert!(m.charge_fuel().is_ok());
            assert!(m.charge_mem(1 << 40).is_ok());
        }
        assert!(!m.fuel_limited());
    }

    #[test]
    fn block_charge_matches_per_iteration_charges() {
        // Every (limit, n) pair must leave the block-charged meter in
        // the same state as n sequential charge_fuel calls, returning
        // the same error at the same iteration.
        for limit in [0u64, 1, 3, 7, 100] {
            for n in [0u64, 1, 3, 7, 8, 250] {
                let mut a = Meter::new(Limits {
                    fuel: Some(limit),
                    mem_bytes: None,
                });
                let mut b = a.clone();
                let (done, err) = a.charge_fuel_block(n);
                let mut want_done = n;
                let mut want_err = None;
                for k in 0..n {
                    if let Err(e) = b.charge_fuel() {
                        want_done = k;
                        want_err = Some(e);
                        break;
                    }
                }
                assert_eq!((done, err), (want_done, want_err), "limit {limit} n {n}");
                assert_eq!(a.fuel_left(), b.fuel_left(), "limit {limit} n {n}");
            }
        }
    }

    #[test]
    fn covers_only_what_can_be_charged_without_a_trip_or_a_draw() {
        let limits = Limits {
            fuel: Some(10),
            mem_bytes: Some(64),
        };
        let m = Meter::new(limits);
        assert!(m.covers(10, 64));
        assert!(!m.covers(11, 0));
        assert!(!m.covers(0, 65));
        assert!(Meter::unlimited().covers(u64::MAX, u64::MAX));
        // A ceiling-backed meter with no local cap draws on the pool,
        // whose balance other requests move.
        let ceiling = SharedCeiling::new(limits);
        let lazy = Meter::admit(Limits::unlimited(), &ceiling).unwrap();
        assert!(!lazy.covers(0, 0));
        let reserved = Meter::admit(limits, &ceiling).unwrap();
        assert!(reserved.covers(10, 64));
    }

    #[test]
    fn block_charge_on_unlimited_meter_covers_everything() {
        let mut m = Meter::unlimited();
        assert_eq!(m.charge_fuel_block(u64::MAX), (u64::MAX, None));
    }

    #[test]
    fn reduction_block_charge_prices_one_unit_per_iteration() {
        // A fused reduction over n iterations costs exactly n — the
        // fold itself is free, matching the scalar tape where only the
        // LoopHead charges. A budget of exactly n covers the kernel
        // and leaves the meter on its last legal unit... spent.
        let n = 37u64;
        let mut m = Meter::new(Limits {
            fuel: Some(n),
            mem_bytes: None,
        });
        assert_eq!(m.charge_fuel_block(n), (n, None));
        assert_eq!(m.fuel_left(), 0);
        assert_eq!(
            m.charge_fuel(),
            Err(RuntimeError::FuelExhausted { limit: n })
        );
    }

    #[test]
    fn reduction_block_shortfall_issues_one_genuine_failing_charge() {
        // Mid-kernel exhaustion: the block covers `limit` iterations,
        // then surfaces the error the (limit+1)-th scalar charge would
        // raise — so a dot kernel that dies mid-fold reports the same
        // payload at the same iteration as the dispatch loop, and the
        // kernel must have stored exactly `limit` partial sums.
        let mut m = Meter::new(Limits {
            fuel: Some(5),
            mem_bytes: None,
        });
        let (done, err) = m.charge_fuel_block(12);
        assert_eq!(done, 5);
        assert_eq!(err, Some(RuntimeError::FuelExhausted { limit: 5 }));
        assert_eq!(m.fuel_left(), 0);
        // Exhausted meters stay exhausted for the retry.
        assert!(m.charge_fuel().is_err());
    }

    #[test]
    fn sub_meter_block_charge_reports_original_limit() {
        // A reduction running inside one chunk of an outer parallel
        // region (the matvec shape) charges the chunk's sub-meter; a
        // shortfall there must carry the *run's* limit, not the
        // chunk's share, so the structured error is engine-invariant.
        let parent = Meter::new(Limits {
            fuel: Some(1000),
            mem_bytes: None,
        });
        let mut chunk = parent.sub_meter(8);
        assert_eq!(chunk.charge_fuel_block(8), (8, None));
        let (done, err) = chunk.charge_fuel_block(3);
        assert_eq!(done, 0);
        assert_eq!(err, Some(RuntimeError::FuelExhausted { limit: 1000 }));
    }

    #[test]
    fn lazy_meter_block_charge_replays_refill_boundaries() {
        // Lease-backed meters draw fuel in FUEL_BLOCK slabs; a bulk
        // charge must replay those refill boundaries so the pool sees
        // the same draws as n scalar charges. Sweep block sizes that
        // land before, on, and after a slab edge, plus pool
        // exhaustion mid-kernel.
        for n in [
            1u64,
            FUEL_BLOCK - 1,
            FUEL_BLOCK,
            FUEL_BLOCK + 3,
            3 * FUEL_BLOCK,
        ] {
            let pool = Limits {
                fuel: Some(2 * FUEL_BLOCK + 7),
                mem_bytes: None,
            };
            let ca = SharedCeiling::new(pool);
            let cb = SharedCeiling::new(pool);
            let mut a = Meter::admit(Limits::unlimited(), &ca).unwrap();
            let mut b = Meter::admit(Limits::unlimited(), &cb).unwrap();
            assert!(a.draws_lazily());
            let got = a.charge_fuel_block(n);
            let mut want = (n, None);
            for k in 0..n {
                if let Err(e) = b.charge_fuel() {
                    want = (k, Some(e));
                    break;
                }
            }
            assert_eq!(got, want, "n {n}");
            assert_eq!(a.fuel_left(), b.fuel_left(), "n {n}");
            a.settle();
            b.settle();
            assert_eq!(ca.fuel_available(), cb.fuel_available(), "n {n}");
        }
    }

    #[test]
    fn mem_reports_used_and_requested() {
        let mut m = Meter::new(Limits {
            fuel: None,
            mem_bytes: Some(100),
        });
        assert!(m.charge_mem(64).is_ok());
        assert_eq!(
            m.charge_mem(64),
            Err(RuntimeError::MemLimitExceeded {
                limit: 100,
                used: 64,
                requested: 64,
            })
        );
        // A smaller allocation still fits.
        assert!(m.charge_mem(36).is_ok());
    }

    #[test]
    fn sub_meter_reports_original_limit() {
        let m = Meter::new(Limits {
            fuel: Some(1000),
            mem_bytes: None,
        });
        let mut sub = m.sub_meter(0);
        assert_eq!(
            sub.charge_fuel(),
            Err(RuntimeError::FuelExhausted { limit: 1000 })
        );
    }

    fn caps(fuel: u64, mem: u64) -> Limits {
        Limits {
            fuel: Some(fuel),
            mem_bytes: Some(mem),
        }
    }

    #[test]
    fn ceiling_admission_is_all_or_nothing() {
        let c = SharedCeiling::new(caps(100, 1000));
        let mut a = Meter::admit(caps(60, 400), &c).unwrap();
        assert_eq!(c.fuel_available(), 40);
        assert_eq!(c.mem_available(), 600);
        // Second request over-asks on fuel: nothing is held.
        let err = Meter::admit(caps(50, 100), &c).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::CeilingExhausted {
                resource: "fuel",
                requested: 50,
                available: 40,
            }
        ));
        assert_eq!(c.mem_available(), 600, "failed admission holds nothing");
        // Memory shortfall rolls the fuel hold back too.
        let err = Meter::admit(caps(10, 700), &c).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::CeilingExhausted {
                resource: "memory",
                ..
            }
        ));
        assert_eq!(c.fuel_available(), 40, "fuel hold rolled back");
        a.settle();
    }

    #[test]
    fn settlement_refunds_unspent_fuel_and_all_memory() {
        let c = SharedCeiling::new(caps(100, 1000));
        let mut m = Meter::admit(caps(60, 400), &c).unwrap();
        for _ in 0..25 {
            m.charge_fuel().unwrap();
        }
        m.charge_mem(128).unwrap();
        m.settle();
        assert_eq!(c.fuel_available(), 75, "spent fuel stays spent");
        assert_eq!(c.mem_available(), 1000, "memory returns in full");
        // Settle is idempotent.
        m.settle();
        assert_eq!(c.fuel_available(), 75);
    }

    #[test]
    fn local_exhaustion_is_ceiling_independent() {
        // An admitted meter trips exactly like a plain one: same
        // charge, same payload — the ceiling never changes the point.
        let c = SharedCeiling::new(caps(1000, 10_000));
        let mut plain = Meter::new(caps(3, 64));
        let mut admitted = Meter::admit(caps(3, 64), &c).unwrap();
        for _ in 0..3 {
            plain.charge_fuel().unwrap();
            admitted.charge_fuel().unwrap();
        }
        assert_eq!(plain.charge_fuel(), admitted.charge_fuel());
        assert_eq!(plain.charge_mem(100), admitted.charge_mem(100));
        admitted.settle();
    }

    #[test]
    fn lazy_meter_draws_blocks_and_exhausts_on_empty_pool() {
        let c = SharedCeiling::new(Limits {
            fuel: Some(FUEL_BLOCK + 7),
            mem_bytes: None,
        });
        let mut m = Meter::admit(Limits::unlimited(), &c).unwrap();
        assert!(m.draws_lazily());
        for _ in 0..(FUEL_BLOCK + 7) {
            m.charge_fuel().unwrap();
        }
        assert_eq!(
            m.charge_fuel(),
            Err(RuntimeError::CeilingExhausted {
                resource: "fuel",
                requested: 1,
                available: 0,
            })
        );
        m.settle();
        assert_eq!(c.fuel_available(), 0, "every drawn unit was spent");
    }

    #[test]
    fn lazy_mem_draws_and_refunds_exact_bytes() {
        let c = SharedCeiling::new(Limits {
            fuel: None,
            mem_bytes: Some(256),
        });
        let mut m = Meter::admit(Limits::unlimited(), &c).unwrap();
        m.charge_mem(200).unwrap();
        assert_eq!(c.mem_available(), 56);
        assert!(matches!(
            m.charge_mem(100),
            Err(RuntimeError::CeilingExhausted {
                resource: "memory",
                requested: 100,
                ..
            })
        ));
        m.settle();
        assert_eq!(c.mem_available(), 256, "memory returns on settle");
    }

    #[test]
    fn clone_and_sub_meter_carry_no_lease() {
        let c = SharedCeiling::new(caps(100, 100));
        let mut m = Meter::admit(caps(40, 40), &c).unwrap();
        let clone = m.clone();
        let sub = m.sub_meter(10);
        drop(clone);
        drop(sub);
        m.settle();
        assert_eq!(c.fuel_available(), 100, "only the original refunds");
        assert_eq!(c.mem_available(), 100);
    }

    #[test]
    fn racing_reservations_never_overcommit() {
        // Hammer the pool from many threads; an atomic tally of
        // outstanding grants proves the sum never exceeds the pool.
        const POOL: u64 = 10_000;
        let c = SharedCeiling::new(Limits {
            fuel: Some(POOL),
            mem_bytes: None,
        });
        let outstanding = AtomicU64::new(0);
        let granted = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let c = &c;
                let outstanding = &outstanding;
                let granted = &granted;
                s.spawn(move || {
                    let mut x = t.wrapping_mul(0x9E3779B97F4A7C15).max(1);
                    for _ in 0..2000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let amount = x % 700 + 1;
                        if c.reserve_fuel(amount) {
                            let now = outstanding.fetch_add(amount, Ordering::SeqCst) + amount;
                            assert!(now <= POOL, "over-committed: {now} > {POOL}");
                            granted.fetch_add(amount, Ordering::Relaxed);
                            outstanding.fetch_sub(amount, Ordering::SeqCst);
                            c.refund_fuel(amount);
                        }
                    }
                });
            }
        });
        assert!(granted.load(Ordering::Relaxed) > 0, "some grants happened");
        assert_eq!(
            c.fuel_available(),
            POOL,
            "full refunds restore the pool exactly"
        );
    }

    #[test]
    fn simultaneous_reservations_never_fail_spuriously() {
        // `threads` callers each ask for `amount` from a pool of `pool`
        // at the same instant: exactly as many succeed as the pool can
        // hold, in every round — a shortfall is the only reason to fail.
        const ROUNDS: u64 = 10_000;
        for (threads, amount, pool) in [(2u64, 60u64, 100u64), (4, 40, 100)] {
            let c = SharedCeiling::new(Limits {
                fuel: Some(pool),
                mem_bytes: None,
            });
            let want = threads.min(pool / amount);
            let barrier = std::sync::Barrier::new(threads as usize);
            let wins = AtomicU64::new(0);
            let bad_rounds = AtomicU64::new(0);
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| {
                        for _ in 0..ROUNDS {
                            barrier.wait();
                            let ok = c.reserve_fuel(amount);
                            wins.fetch_add(u64::from(ok), Ordering::SeqCst);
                            if barrier.wait().is_leader() && wins.swap(0, Ordering::SeqCst) != want
                            {
                                bad_rounds.fetch_add(1, Ordering::Relaxed);
                            }
                            if ok {
                                c.refund_fuel(amount);
                            }
                        }
                    });
                }
            });
            assert_eq!(
                bad_rounds.load(Ordering::Relaxed),
                0,
                "{threads} threads x {amount} of {pool}: rounds without exactly {want} grants"
            );
            assert_eq!(c.fuel_available(), pool);
        }
    }

    #[test]
    fn reservation_ordinals_are_dense_and_monotonic() {
        let c = SharedCeiling::new(caps(100, 100));
        assert_eq!(c.reservations(), 0);
        for want in 0..10 {
            assert_eq!(c.take_ordinal(), want);
        }
        assert_eq!(c.reservations(), 10);
        // Uncapped pools hand out ordinals too — the serving layer
        // stamps admissions whether or not resources are finite.
        let open = SharedCeiling::new(Limits::unlimited());
        assert_eq!(open.take_ordinal(), 0);
        assert_eq!(open.take_ordinal(), 1);
    }

    #[test]
    fn plan_parses_points_flags_and_seeds() {
        let plan = FaultPlan::parse("r0c1:panic, r2c3:allocfail").unwrap();
        assert_eq!(plan.points.len(), 2);
        assert!(plan.snapshot);
        assert_eq!(plan.lookup(0, 1), Some(FaultKind::Panic));
        assert_eq!(plan.lookup(2, 3), Some(FaultKind::AllocFail));
        assert_eq!(plan.lookup(1, 1), None);

        let plan = FaultPlan::parse("nosnapshot,r1c0:panic").unwrap();
        assert!(!plan.snapshot);

        let a = FaultPlan::parse("seed:42").unwrap();
        let b = FaultPlan::parse("seed:42").unwrap();
        assert_eq!(a, b, "seeded plans are deterministic");
        assert_eq!(a.points.len(), 4);

        assert!(FaultPlan::parse("bogus").is_err());
        assert!(FaultPlan::parse("r1c2:fire").is_err());
        assert!(FaultPlan::parse("seed:x").is_err());
    }
}
