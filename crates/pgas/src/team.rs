//! SPMD teams, rank contexts and collectives.
//!
//! A [`Team`] owns everything the ranks share: the topology, the barrier, the
//! statistics and the scratch slots used by collectives. `Team::run` spawns
//! one thread per rank and executes the same closure on each, mirroring UPC's
//! SPMD execution of `main` across `THREADS` ranks. Inside the closure, the
//! per-rank [`Ctx`] exposes the collectives and the accounting hooks.

use crate::conformance::{ConformanceState, OpKind, OpRecord};
use crate::stats::{CommStats, StatsSnapshot};
use crate::topology::Topology;
use parking_lot::Mutex;
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::panic::Location;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A kill instruction for fault-injection runs (see [`Team::set_fault_plan`]):
/// rank `rank` aborts the moment it *enters* its `(after_barriers + 1)`-th
/// barrier, i.e. after having completed `after_barriers` barriers. Because all
/// ranks execute the same collective sequence, a barrier index addresses a
/// deterministic point of the program, which is what lets a harness kill a run
/// "just after checkpoint i committed".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The rank to kill.
    pub rank: usize,
    /// How many barriers the rank completes before dying at the next one.
    pub after_barriers: u64,
}

/// The outcome of an injected fault: returned by [`Team::try_run`] when a
/// [`FaultPlan`] fired (also used as the killed rank's panic payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankFault {
    /// The rank that was killed.
    pub rank: usize,
    /// Barriers the rank had completed when it died.
    pub barriers_entered: u64,
}

impl std::fmt::Display for RankFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} killed by fault plan after {} barriers",
            self.rank, self.barriers_entered
        )
    }
}

/// Panic payload of ranks collaterally aborted by a poisoned barrier (they
/// were blocked in, or later reached, a barrier another rank will never
/// enter). Distinguished from [`RankFault`] so `try_run` can tell the injected
/// kill from its shockwave.
struct BarrierPoisoned;

/// A `std::sync::Barrier` look-alike that can be *poisoned*: once any rank
/// dies, every current and future waiter unblocks by panicking (with a
/// [`BarrierPoisoned`] payload) instead of deadlocking on the missing rank.
struct AbortableBarrier {
    n: usize,
    state: std::sync::Mutex<BarrierState>,
    cvar: std::sync::Condvar,
}

struct BarrierState {
    count: usize,
    generation: u64,
    poisoned: bool,
}

impl AbortableBarrier {
    fn new(n: usize) -> Self {
        AbortableBarrier {
            n,
            state: std::sync::Mutex::new(BarrierState {
                count: 0,
                generation: 0,
                poisoned: false,
            }),
            cvar: std::sync::Condvar::new(),
        }
    }

    /// Locks the state, shedding std's lock poisoning: our own `poisoned`
    /// flag is the fault protocol, and the flag-setting panics below would
    /// otherwise poison the std mutex for every later waiter.
    fn lock(&self) -> std::sync::MutexGuard<'_, BarrierState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait(&self) {
        self.wait_with(|| Ok(()));
    }

    /// Like `wait`, but the **last arriver** runs `on_last` while holding the
    /// barrier lock — every other rank is parked in the rendezvous, which is
    /// exactly the quiescent point the conformance cross-check needs. If
    /// `on_last` returns `Err`, the barrier is poisoned (so the parked ranks
    /// abort with `BarrierPoisoned`) and the last arriver panics with the
    /// message — a genuine panic that propagates through `try_run`.
    fn wait_with<F>(&self, on_last: F)
    where
        F: FnOnce() -> Result<(), String>,
    {
        mhm_sched::yield_point("pgas::barrier::enter");
        let mut s = self.lock();
        if s.poisoned {
            drop(s);
            std::panic::panic_any(BarrierPoisoned);
        }
        s.count += 1;
        if s.count == self.n {
            s.count = 0;
            if let Err(msg) = on_last() {
                s.poisoned = true;
                self.cvar.notify_all();
                drop(s);
                panic!("{msg}");
            }
            s.generation = s.generation.wrapping_add(1);
            self.cvar.notify_all();
            return;
        }
        let gen = s.generation;
        while s.generation == gen && !s.poisoned {
            s = self.cvar.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        let aborted = s.poisoned && s.generation == gen;
        drop(s);
        if aborted {
            std::panic::panic_any(BarrierPoisoned);
        }
        mhm_sched::yield_point("pgas::barrier::exit");
    }

    fn poison(&self) {
        mhm_sched::yield_point("pgas::barrier::poison");
        let mut s = self.lock();
        s.poisoned = true;
        self.cvar.notify_all();
    }
}

/// Installs (once, process-wide) a delegating panic hook that silences the
/// expected fault-propagation payloads — an injected [`RankFault`] and its
/// [`BarrierPoisoned`] shockwave — so a fault-injection run doesn't spray
/// "thread panicked" noise for panics the harness is about to catch. All
/// other panics delegate to the previously installed hook unchanged.
fn install_fault_panic_hook() {
    static HOOK: std::sync::OnceLock<()> = std::sync::OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<RankFault>().is_some()
                || info.payload().downcast_ref::<BarrierPoisoned>().is_some()
            {
                return;
            }
            UNEXPECTED_PANICS.fetch_add(1, Ordering::SeqCst);
            prev(info);
        }));
    });
}

/// Process-wide count of panics that were neither an injected [`RankFault`]
/// nor its `BarrierPoisoned` shockwave — i.e. genuine bugs. Maintained by the
/// delegating panic hook so harness binaries can detect worker-thread panics
/// that a sloppy `let _ = handle.join()` would otherwise mask.
static UNEXPECTED_PANICS: AtomicU64 = AtomicU64::new(0);

/// Installs the fault-classifying panic hook (idempotent). Harness `main`s
/// call this before doing any work so that [`unexpected_panics`] observes
/// every thread's panics, including ones swallowed by join order.
pub fn install_panic_accounting() {
    install_fault_panic_hook();
}

/// Number of unexpected (non-fault-protocol) panics seen process-wide since
/// startup. Compare snapshots around a harness body to detect masked worker
/// panics; see `mhm_bench::harness_exit_code`.
pub fn unexpected_panics() -> u64 {
    UNEXPECTED_PANICS.load(Ordering::SeqCst)
}

/// Shared SPMD team state.
pub struct Team {
    topo: Topology,
    barrier: AbortableBarrier,
    /// Per-rank count of barriers entered, driving [`FaultPlan`] placement
    /// and exposed via [`Ctx::barriers_entered`].
    barrier_counts: Vec<AtomicU64>,
    /// Whether any [`FaultPlan`] is armed; the barrier hot path pays one
    /// relaxed load when not. The plans themselves live behind a lock since
    /// they are only consulted once the flag is set.
    fault_armed: AtomicBool,
    fault_plans: Mutex<Vec<FaultPlan>>,
    /// Collective-conformance traces, digests and local-phase registries
    /// (see [`crate::conformance`]).
    conformance: ConformanceState,
    stats: Vec<CommStats>,
    /// Slot used by `share`/`broadcast` collectives (rank 0 publishes a value,
    /// everyone clones it). Protected by the surrounding barrier protocol.
    share_slot: Mutex<Option<Arc<dyn Any + Send + Sync>>>,
    /// Per-rank contribution slots for u64 reductions.
    reduce_u64: Vec<AtomicU64>,
    /// Per-rank contribution slots for f64 reductions (bit-cast through u64).
    reduce_f64: Vec<AtomicU64>,
    /// Long-lived shared values keyed by type and lease index, reused across
    /// collective phases (e.g. the exchange mailboxes) so that each phase
    /// does not pay for a fresh allocation plus a serialising `share` round.
    /// The lease index distinguishes collectives of the same item type that
    /// are live simultaneously (see [`Team::reusable_slot`]).
    reusable_slots: Mutex<HashMap<(TypeId, usize), Arc<dyn Any + Send + Sync>>>,
}

thread_local! {
    /// Per-rank (per SPMD thread) lease table: for each slot type, which
    /// pooled instances this rank currently holds. Ranks execute the same
    /// program in the same order, so every rank computes the same lease index
    /// for the same collective and all of them resolve to the same pooled
    /// instance — without any cross-rank synchronisation.
    static SLOT_LEASES: std::cell::RefCell<HashMap<TypeId, Vec<bool>>> =
        std::cell::RefCell::new(HashMap::new());
}

/// A leased reusable team slot (see [`Team::reusable_slot`]). Dereferences to
/// the shared value; dropping the lease returns the instance to the pool for
/// the rank's next acquisition. Not `Send`: the lease must be dropped on the
/// rank thread that acquired it (which SPMD code does naturally).
pub(crate) struct SlotLease<T: Send + Sync + 'static> {
    value: Arc<T>,
    index: usize,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl<T: Send + Sync + 'static> std::ops::Deref for SlotLease<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T: Send + Sync + 'static> Drop for SlotLease<T> {
    fn drop(&mut self) {
        SLOT_LEASES.with(|leases| {
            if let Some(held) = leases.borrow_mut().get_mut(&TypeId::of::<T>()) {
                if let Some(flag) = held.get_mut(self.index) {
                    *flag = false;
                }
            }
        });
    }
}

impl Team {
    /// Creates a team for the given topology.
    pub fn new(topo: Topology) -> Arc<Team> {
        let n = topo.ranks();
        Arc::new(Team {
            topo,
            barrier: AbortableBarrier::new(n),
            barrier_counts: (0..n).map(|_| AtomicU64::new(0)).collect(),
            fault_armed: AtomicBool::new(false),
            fault_plans: Mutex::new(Vec::new()),
            conformance: ConformanceState::new(n),
            stats: (0..n).map(|_| CommStats::default()).collect(),
            share_slot: Mutex::new(None),
            reduce_u64: (0..n).map(|_| AtomicU64::new(0)).collect(),
            reduce_f64: (0..n).map(|_| AtomicU64::new(0)).collect(),
            reusable_slots: Mutex::new(HashMap::new()),
        })
    }

    /// Accepts only `true`, which changes nothing: routing follows the
    /// topology alone (node leaders on a multi-node team, direct sends on a
    /// single node). Kept for the staged ledger driver, which still passes
    /// its configuration's `use_hierarchical_exchange` through here.
    ///
    /// # Panics
    /// Panics on `false`: the flat rank-to-rank path for multi-node teams is
    /// gone.
    pub fn set_hierarchical_exchange(&self, on: bool) {
        assert!(
            on,
            "the flat off-node exchange path is removed: multi-node teams always route \
             through node leaders"
        );
    }

    /// Leases the team's reusable shared value of type `T`, creating it with
    /// `make` on first use. Unlike [`Ctx::share`] this performs no barriers:
    /// whichever rank arrives first creates the value under the slot lock, so
    /// `make` must be deterministic given the team (all current uses are
    /// empty per-rank mailbox arrays). Two collectives of the same type that
    /// are live at the same time receive *distinct* pooled instances: each
    /// rank tracks which lease indices it currently holds (thread-locally)
    /// and takes the lowest free one, and because SPMD ranks acquire and
    /// release leases in identical program order, every rank of a collective
    /// agrees on the instance. The caller must leave the value in a neutral
    /// state when its collective phase ends, since the same instance is
    /// handed out again for the next phase.
    pub(crate) fn reusable_slot<T, F>(&self, make: F) -> SlotLease<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        let index = SLOT_LEASES.with(|leases| {
            let mut map = leases.borrow_mut();
            let held = map.entry(TypeId::of::<T>()).or_default();
            match held.iter().position(|h| !h) {
                Some(i) => {
                    held[i] = true;
                    i
                }
                None => {
                    held.push(true);
                    held.len() - 1
                }
            }
        });
        let mut slots = self.reusable_slots.lock();
        let entry = slots
            .entry((TypeId::of::<T>(), index))
            .or_insert_with(|| Arc::new(make()) as Arc<dyn Any + Send + Sync>);
        let value = Arc::clone(entry)
            .downcast::<T>()
            // lint: allow(unwrap): the map key *is* the TypeId, so the downcast cannot fail
            .expect("reusable slot keyed by TypeId");
        SlotLease {
            value,
            index,
            _not_send: std::marker::PhantomData,
        }
    }

    /// Convenience: a team of `ranks` ranks on a single simulated node.
    pub fn single_node(ranks: usize) -> Arc<Team> {
        Team::new(Topology::single_node(ranks))
    }

    /// The team topology.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.topo.ranks()
    }

    /// Per-rank statistics (indexed by rank).
    pub fn stats(&self, rank: usize) -> &CommStats {
        &self.stats[rank]
    }

    /// Sum of all ranks' statistics.
    pub fn stats_total(&self) -> StatsSnapshot {
        self.stats
            .iter()
            .map(|s| s.snapshot())
            .fold(StatsSnapshot::default(), |acc, s| acc.add(&s))
    }

    /// Per-rank snapshots.
    pub fn stats_per_rank(&self) -> Vec<StatsSnapshot> {
        self.stats.iter().map(|s| s.snapshot()).collect()
    }

    /// Resets all ranks' statistics.
    pub fn reset_stats(&self) {
        for s in &self.stats {
            s.reset();
        }
    }

    /// Arms (or with `None`, disarms) a [`FaultPlan`] for the next SPMD run.
    /// Must not be flipped from inside an SPMD region. Barrier counts are
    /// team-lifetime, so a plan's `after_barriers` is relative to the team's
    /// creation, not to the next `run` call; fault harnesses use a fresh team
    /// per run. Once a fault fires the team's barrier stays poisoned — the
    /// team must be discarded, mirroring a real job whose process died.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        match plan {
            Some(p) => self.set_fault_plans(&[p]),
            None => self.set_fault_plans(&[]),
        }
    }

    /// Arms several [`FaultPlan`]s at once (multi-kill runs: e.g. two ranks
    /// dying at different barriers, or two ranks at the same barrier). The
    /// same caveats as [`Team::set_fault_plan`] apply; an empty slice
    /// disarms. The first plan to fire poisons the barrier, so later plans
    /// whose ranks never reach their barrier are moot.
    pub fn set_fault_plans(&self, plans: &[FaultPlan]) {
        *self.fault_plans.lock() = plans.to_vec();
        self.fault_armed.store(!plans.is_empty(), Ordering::SeqCst);
    }

    /// Turns runtime collective-conformance checking on or off for this team
    /// (see [`crate::conformance`]). Defaults to on under
    /// `cfg(debug_assertions)` and off in release; `MHM_CONFORMANCE=1|0`
    /// overrides the default at team creation. Must not be flipped from
    /// inside an SPMD region: ranks mid-phase would disagree on whether their
    /// traces are being kept.
    pub fn set_conformance_checking(&self, on: bool) {
        self.conformance.set_enabled(on);
    }

    /// Whether collective-conformance checking is currently enabled.
    pub fn conformance_checking(&self) -> bool {
        self.conformance.enabled()
    }

    /// `(lifetime collective-op count, schedule digest)` for `rank`. Digests
    /// advance on every collective even with checking disabled, so release
    /// runs still produce meaningful checkpoint stamps.
    pub fn conformance_stamp(&self, rank: usize) -> (u64, u64) {
        self.conformance.stamp(rank)
    }

    /// Barriers entered so far by `rank` (team-lifetime count).
    pub fn barriers_entered(&self, rank: usize) -> u64 {
        self.barrier_counts[rank].load(Ordering::Relaxed)
    }

    /// Runs `f` SPMD-style: one thread per rank, all executing the same
    /// closure with their own [`Ctx`]. Returns the per-rank results in rank
    /// order. Panics in any rank propagate (including injected faults).
    pub fn run<R, F>(self: &Arc<Self>, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Ctx) -> R + Send + Sync,
    {
        match self.try_run(f) {
            Ok(out) => out,
            Err(fault) => panic!("SPMD rank panicked: {fault}"),
        }
    }

    /// Like [`Team::run`], but an injected [`FaultPlan`] kill is returned as
    /// `Err(RankFault)` instead of panicking, so a harness can observe the
    /// crash and drive a restart. Any rank panic (injected or not) poisons
    /// the team barrier, so the surviving ranks abort instead of deadlocking
    /// on a collective the dead rank will never join; their collateral aborts
    /// are swallowed. A genuine (non-injected) panic still propagates with
    /// its original payload.
    pub fn try_run<R, F>(self: &Arc<Self>, f: F) -> Result<Vec<R>, RankFault>
    where
        R: Send,
        F: Fn(&Ctx) -> R + Send + Sync,
    {
        install_fault_panic_hook();
        let n = self.ranks();
        let f = &f;
        let results: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for rank in 0..n {
                let team = Arc::clone(self);
                handles.push(scope.spawn(move || {
                    let ctx = Ctx { rank, team: &team };
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&ctx)));
                    match out {
                        Ok(v) => v,
                        Err(payload) => {
                            // Unblock everyone stuck waiting for this rank.
                            team.barrier.poison();
                            std::panic::resume_unwind(payload);
                        }
                    }
                }));
            }
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut fault: Option<RankFault> = None;
        let mut other: Option<Box<dyn Any + Send>> = None;
        let mut ok = Vec::with_capacity(n);
        for result in results {
            match result {
                Ok(v) => ok.push(v),
                Err(payload) => {
                    if let Some(rf) = payload.downcast_ref::<RankFault>() {
                        fault.get_or_insert_with(|| rf.clone());
                    } else if payload.downcast_ref::<BarrierPoisoned>().is_none() {
                        other.get_or_insert(payload);
                    }
                }
            }
        }
        if let Some(payload) = other {
            // A real bug outranks an injected fault: re-raise it.
            std::panic::resume_unwind(payload);
        }
        match fault {
            Some(rf) => Err(rf),
            None => {
                // Every lost rank must be accounted for by a fault or a
                // genuine panic. A short result vector here means a rank
                // aborted on a poisoned barrier while the originating panic
                // payload was lost — never silently return partial results.
                assert!(
                    ok.len() == n,
                    "SPMD run lost {} rank result(s) without a recorded fault: \
                     a rank aborted on a poisoned barrier but the originating \
                     panic was swallowed",
                    n - ok.len()
                );
                Ok(ok)
            }
        }
    }
}

impl std::fmt::Debug for Team {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Team")
            .field("topology", &self.topo)
            .finish_non_exhaustive()
    }
}

/// RAII registration of a *local phase* (see [`Ctx::begin_local_phase`]):
/// while alive, one-sided traffic from other ranks against this rank's shard
/// of the tokened object is flagged by [`Ctx::check_one_sided_target`].
/// Dropping the guard ends the phase.
pub struct LocalPhaseGuard {
    team: Arc<Team>,
    rank: usize,
    token: usize,
}

impl Drop for LocalPhaseGuard {
    fn drop(&mut self) {
        self.team.conformance.end_local_phase(self.rank, self.token);
    }
}

/// Per-rank execution context handed to the SPMD closure.
pub struct Ctx<'t> {
    rank: usize,
    team: &'t Arc<Team>,
}

impl<'t> Ctx<'t> {
    /// This rank's index (UPC's `MYTHREAD`).
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total ranks (UPC's `THREADS`).
    #[inline]
    pub fn ranks(&self) -> usize {
        self.team.ranks()
    }

    /// The team this rank belongs to.
    pub fn team(&self) -> &Arc<Team> {
        self.team
    }

    /// The machine topology.
    pub fn topology(&self) -> Topology {
        self.team.topo
    }

    /// This rank's statistics counters.
    pub fn stats(&self) -> &CommStats {
        &self.team.stats[self.rank]
    }

    /// Records a fine-grained access to data owned by `owner_rank`, counting
    /// it as on-node or off-node according to the topology.
    #[inline]
    pub fn record_access(&self, owner_rank: usize) {
        if self.team.topo.same_node(self.rank, owner_rank) {
            self.stats().local_ops.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats().remote_ops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records an aggregated message of `bytes` payload to `dest`, splitting
    /// the payload into on-node and off-node bytes according to the topology.
    /// On a multi-node team each leg of a node-leader route (gather, ship,
    /// scatter) is a message of its own, so the legs' byte classes add up
    /// correctly.
    #[inline]
    pub fn record_message(&self, dest: usize, bytes: usize) {
        let s = self.stats();
        s.msgs_sent.fetch_add(1, Ordering::Relaxed);
        s.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
        if self.team.topo.same_node(self.rank, dest) {
            s.on_node_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            s.on_node_msgs.fetch_add(1, Ordering::Relaxed);
        } else {
            s.off_node_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            s.off_node_msgs.fetch_add(1, Ordering::Relaxed);
        }
        // The message itself also counts as a (single) remote or local access.
        self.record_access(dest);
    }

    /// Records the response leg of a *one-sided* aggregated read: the payload
    /// travels from `src` to this rank, but this rank's thread performs the
    /// transfer the owner's network interface would. The message (and its
    /// response bytes) are therefore attributed to the serving rank `src`,
    /// keeping per-rank traffic breakdowns faithful.
    pub fn record_rpc_response_from(&self, src: usize, bytes: usize) {
        let s = &self.team.stats[src];
        s.msgs_sent.fetch_add(1, Ordering::Relaxed);
        s.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
        s.rpc_resp_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        if self.team.topo.same_node(src, self.rank) {
            s.on_node_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            s.on_node_msgs.fetch_add(1, Ordering::Relaxed);
            s.local_ops.fetch_add(1, Ordering::Relaxed);
        } else {
            s.off_node_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            s.off_node_msgs.fetch_add(1, Ordering::Relaxed);
            s.remote_ops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one collective entry for this rank: folds the descriptor into
    /// the rank's schedule digest (always) and appends it to the conformance
    /// trace (when checking is enabled). Collective entry points call this
    /// with their `#[track_caller]` caller location as the site.
    #[inline]
    pub(crate) fn record_collective(
        &self,
        kind: OpKind,
        site: &'static Location<'static>,
        payload: &'static str,
        elem_size: usize,
    ) {
        self.team.conformance.record(
            self.rank,
            OpRecord {
                kind,
                site,
                payload,
                elem_size,
            },
        );
    }

    /// Registers the start of a *local phase* over the object identified by
    /// `token` (conventionally the protected object's shared address):
    /// until the returned guard drops, one-sided ops from other ranks that
    /// target this rank's shard of that object are conformance violations.
    /// The call site is captured for the diagnostic.
    #[track_caller]
    pub fn begin_local_phase(&self, token: usize) -> LocalPhaseGuard {
        self.team
            .conformance
            .begin_local_phase(self.rank, token, Location::caller());
        LocalPhaseGuard {
            team: Arc::clone(self.team),
            rank: self.rank,
            token,
        }
    }

    /// Conformance check for one-sided ops: panics (naming both call sites)
    /// if `owner` currently holds a local phase for `token` — i.e. the target
    /// shard is inside a `local_view`-style region and must not be probed
    /// remotely. No-op when conformance checking is disabled.
    #[track_caller]
    pub fn check_one_sided_target(&self, owner: usize, token: usize) {
        if !self.team.conformance.enabled() {
            return;
        }
        if let Some(held) = self.team.conformance.local_phase_site(owner, token) {
            panic!(
                "one-sided op from rank {} @ {} targets rank {owner}'s shard while a \
                 local_view phase holds it (phase began @ {held}); finish or drop the \
                 local view before issuing remote traffic against that shard",
                self.rank,
                Location::caller(),
            );
        }
    }

    /// Blocks until every rank has reached the barrier. If a [`FaultPlan`]
    /// names this rank and its barrier count is up, the rank dies here
    /// instead (poisoning the barrier so the other ranks abort rather than
    /// wait forever). Panics with the internal `BarrierPoisoned` payload if
    /// another rank has already died.
    ///
    /// When conformance checking is enabled, the last rank to arrive
    /// cross-checks every rank's collective trace (see
    /// [`crate::conformance`]) and fails the run on divergence.
    #[track_caller]
    pub fn barrier(&self) {
        self.record_collective(OpKind::Barrier, Location::caller(), "", 0);
        let entered = self.team.barrier_counts[self.rank].fetch_add(1, Ordering::Relaxed) + 1;
        if self.team.fault_armed.load(Ordering::Relaxed) {
            let fires = {
                let plans = self.team.fault_plans.lock();
                plans
                    .iter()
                    .any(|p| p.rank == self.rank && entered > p.after_barriers)
            };
            if fires {
                self.team.barrier.poison();
                std::panic::panic_any(RankFault {
                    rank: self.rank,
                    barriers_entered: entered - 1,
                });
            }
        }
        let team = self.team;
        if team.conformance.enabled() {
            team.barrier.wait_with(|| {
                let counts: Vec<u64> = team
                    .barrier_counts
                    .iter()
                    .map(|c| c.load(Ordering::Relaxed))
                    .collect();
                team.conformance.cross_check(&counts)
            });
        } else {
            team.barrier.wait();
        }
    }

    /// Barriers this rank has entered so far (team-lifetime count). All ranks
    /// execute the same collective sequence, so at any collective point every
    /// rank reports the same number — making it a deterministic address for
    /// [`FaultPlan`] placement.
    pub fn barriers_entered(&self) -> u64 {
        self.team.barrier_counts[self.rank].load(Ordering::Relaxed)
    }

    /// Collective: rank 0 evaluates `make` once, every rank receives a clone
    /// of the resulting `Arc`. Must be called by all ranks (it contains
    /// barriers).
    #[track_caller]
    pub fn share<T, F>(&self, make: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        self.record_collective(
            OpKind::Share,
            Location::caller(),
            std::any::type_name::<T>(),
            std::mem::size_of::<T>(),
        );
        if self.rank == 0 {
            let value: Arc<T> = Arc::new(make());
            *self.team.share_slot.lock() = Some(value.clone() as Arc<dyn Any + Send + Sync>);
        }
        self.barrier();
        let out = {
            let slot = self.team.share_slot.lock();
            // lint: allow(unwrap): barrier above guarantees rank 0 published
            let any = slot.as_ref().expect("share slot populated by rank 0");
            Arc::clone(any)
                .downcast::<T>()
                // lint: allow(unwrap): conformance checker reports this divergence first
                .expect("share type mismatch across ranks")
        };
        self.barrier();
        if self.rank == 0 {
            *self.team.share_slot.lock() = None;
        }
        out
    }

    /// Collective broadcast of a cloneable value from rank 0.
    #[track_caller]
    pub fn broadcast<T, F>(&self, make: F) -> T
    where
        T: Clone + Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        (*self.share(make)).clone()
    }

    #[track_caller]
    fn reduce_u64_with(&self, value: u64, combine: impl Fn(u64, u64) -> u64) -> u64 {
        self.record_collective(OpKind::ReduceU64, Location::caller(), "u64", 8);
        self.team.reduce_u64[self.rank].store(value, Ordering::SeqCst);
        self.barrier();
        let mut acc = self.team.reduce_u64[0].load(Ordering::SeqCst);
        for r in 1..self.ranks() {
            acc = combine(acc, self.team.reduce_u64[r].load(Ordering::SeqCst));
        }
        self.barrier();
        acc
    }

    /// All-reduce sum over u64 contributions. Collective.
    #[track_caller]
    pub fn allreduce_sum_u64(&self, value: u64) -> u64 {
        self.reduce_u64_with(value, |a, b| a + b)
    }

    /// All-reduce max over u64 contributions. Collective.
    #[track_caller]
    pub fn allreduce_max_u64(&self, value: u64) -> u64 {
        self.reduce_u64_with(value, u64::max)
    }

    /// All-reduce logical OR over boolean contributions. Collective.
    /// This is the "was anything pruned this iteration" reduction of
    /// Algorithm 2.
    #[track_caller]
    pub fn allreduce_any(&self, value: bool) -> bool {
        self.reduce_u64_with(u64::from(value), u64::max) != 0
    }

    #[track_caller]
    fn reduce_f64_with(&self, value: f64, combine: impl Fn(f64, f64) -> f64) -> f64 {
        self.record_collective(OpKind::ReduceF64, Location::caller(), "f64", 8);
        self.team.reduce_f64[self.rank].store(value.to_bits(), Ordering::SeqCst);
        self.barrier();
        let mut acc = f64::from_bits(self.team.reduce_f64[0].load(Ordering::SeqCst));
        for r in 1..self.ranks() {
            acc = combine(
                acc,
                f64::from_bits(self.team.reduce_f64[r].load(Ordering::SeqCst)),
            );
        }
        self.barrier();
        acc
    }

    /// All-reduce max over f64 contributions. Collective.
    #[track_caller]
    pub fn allreduce_max_f64(&self, value: f64) -> f64 {
        self.reduce_f64_with(value, f64::max)
    }

    /// Splits `0..total` into a contiguous chunk per rank (block
    /// distribution); returns this rank's range. The remainder is spread over
    /// the first ranks so chunk sizes differ by at most one.
    pub fn block_range(&self, total: usize) -> std::ops::Range<usize> {
        block_range_for(self.rank, self.ranks(), total)
    }
}

/// The block-distribution helper behind [`Ctx::block_range`], exposed so that
/// non-SPMD code (tests, planners) can compute the same split.
pub fn block_range_for(rank: usize, ranks: usize, total: usize) -> std::ops::Range<usize> {
    let base = total / ranks;
    let rem = total % ranks;
    let start = rank * base + rank.min(rem);
    let len = base + usize::from(rank < rem);
    start..(start + len).min(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Counter;

    #[test]
    fn reusable_slots_reuse_sequentially_and_split_concurrently() {
        let team = Team::single_node(2);
        team.run(|ctx| {
            let t = ctx.team();
            let p1 = {
                let lease = t.reusable_slot(|| vec![1u8]);
                &*lease as *const Vec<u8> as usize
            };
            let p2 = {
                let lease = t.reusable_slot(|| vec![1u8]);
                &*lease as *const Vec<u8> as usize
            };
            assert_eq!(p1, p2, "sequential leases must reuse the instance");
            let a = t.reusable_slot(|| vec![1u8]);
            let b = t.reusable_slot(|| vec![1u8]);
            assert_ne!(
                &*a as *const Vec<u8>, &*b as *const Vec<u8>,
                "concurrent same-typed leases must not alias"
            );
            drop(b);
            drop(a);
            let p3 = {
                let lease = t.reusable_slot(|| vec![1u8]);
                &*lease as *const Vec<u8> as usize
            };
            assert_eq!(p1, p3, "released leases return to the pool");
        });
    }

    #[test]
    fn spmd_run_returns_rank_ordered_results() {
        let team = Team::single_node(4);
        let out = team.run(|ctx| ctx.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn reductions() {
        let team = Team::single_node(4);
        let sums = team.run(|ctx| ctx.allreduce_sum_u64(ctx.rank() as u64 + 1));
        assert!(sums.iter().all(|&s| s == 10));
        let maxs = team.run(|ctx| ctx.allreduce_max_u64(ctx.rank() as u64));
        assert!(maxs.iter().all(|&m| m == 3));
        let anys = team.run(|ctx| ctx.allreduce_any(ctx.rank() == 2));
        assert!(anys.iter().all(|&b| b));
        let nones = team.run(|ctx| ctx.allreduce_any(false));
        assert!(nones.iter().all(|&b| !b));
        let fmax = team.run(|ctx| ctx.allreduce_max_f64(-(ctx.rank() as f64)));
        assert!(fmax.iter().all(|&m| (m - 0.0).abs() < 1e-12));
    }

    #[test]
    fn consecutive_reductions_do_not_interfere() {
        let team = Team::single_node(3);
        let out = team.run(|ctx| {
            let a = ctx.allreduce_sum_u64(1);
            let b = ctx.allreduce_sum_u64(2);
            let c = ctx.allreduce_max_u64(ctx.rank() as u64);
            (a, b, c)
        });
        assert!(out.iter().all(|&(a, b, c)| a == 3 && b == 6 && c == 2));
    }

    #[test]
    fn share_distributes_single_instance() {
        let team = Team::single_node(4);
        let ptrs = team.run(|ctx| {
            let shared = ctx.share(|| vec![1u32, 2, 3]);
            Arc::as_ptr(&shared) as usize
        });
        assert!(ptrs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn broadcast_clones_value() {
        let team = Team::single_node(3);
        let vals = team.run(|ctx| ctx.broadcast(|| String::from("hello")));
        assert!(vals.iter().all(|v| v == "hello"));
    }

    #[test]
    fn block_ranges_partition_exactly() {
        for ranks in 1..7usize {
            for total in [0usize, 1, 5, 16, 97] {
                let mut covered = 0usize;
                let mut prev_end = 0usize;
                for r in 0..ranks {
                    let range = block_range_for(r, ranks, total);
                    assert!(range.start == prev_end);
                    prev_end = range.end;
                    covered += range.len();
                }
                assert_eq!(covered, total, "ranks={ranks} total={total}");
                assert_eq!(prev_end, total);
            }
        }
    }

    #[test]
    fn stats_recording_distinguishes_nodes() {
        let team = Team::new(Topology::new(4, 2));
        team.run(|ctx| {
            // Rank r touches data owned by every rank once.
            for owner in 0..ctx.ranks() {
                ctx.record_access(owner);
            }
            ctx.record(Counter::atomic_ops, 1);
        });
        let total = team.stats_total();
        // Each of 4 ranks: 2 local (same node incl. self), 2 remote.
        assert_eq!(total.local_ops, 8);
        assert_eq!(total.remote_ops, 8);
        assert_eq!(total.atomic_ops, 4);
        team.reset_stats();
        assert_eq!(team.stats_total(), StatsSnapshot::default());
    }

    #[test]
    fn record_message_counts_bytes() {
        let team = Team::single_node(2);
        team.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.record_message(1, 256);
            }
        });
        let t = team.stats_total();
        assert_eq!(t.msgs_sent, 1);
        assert_eq!(t.bytes_sent, 256);
        assert_eq!(t.on_node_bytes, 256);
        assert_eq!(t.off_node_bytes, 0);
    }

    #[test]
    fn message_bytes_split_by_node_boundary() {
        let team = Team::new(Topology::new(4, 2));
        team.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.record_message(1, 100); // same node
                ctx.record_message(2, 10); // crosses nodes
            }
            if ctx.rank() == 3 {
                // One-sided response leg served by rank 1 (off-node from 3).
                ctx.record_rpc_response_from(1, 7);
            }
        });
        let t = team.stats_total();
        assert_eq!(t.bytes_sent, 117);
        assert_eq!(t.on_node_bytes, 100);
        assert_eq!(t.off_node_bytes, 17);
        // The response leg is charged to the serving rank.
        let serving = team.stats(1).snapshot();
        assert_eq!(serving.off_node_bytes, 7);
        assert_eq!(serving.rpc_resp_bytes, 7);
    }

    #[test]
    fn fault_plan_kills_the_chosen_rank_at_the_chosen_barrier() {
        let team = Team::single_node(4);
        team.set_fault_plan(Some(FaultPlan {
            rank: 2,
            after_barriers: 3,
        }));
        let out = team.try_run(|ctx| {
            for _ in 0..10 {
                ctx.barrier();
            }
            ctx.barriers_entered()
        });
        assert_eq!(
            out,
            Err(RankFault {
                rank: 2,
                barriers_entered: 3
            })
        );
    }

    #[test]
    fn poisoned_barrier_unblocks_ranks_stuck_in_collectives() {
        // Rank 1 dies before its first barrier; the other ranks are blocked
        // inside `share` (which contains barriers) and must abort, not hang.
        let team = Team::single_node(3);
        team.set_fault_plan(Some(FaultPlan {
            rank: 1,
            after_barriers: 0,
        }));
        let out = team.try_run(|ctx| {
            let v = ctx.share(|| 7u32);
            *v
        });
        assert_eq!(
            out,
            Err(RankFault {
                rank: 1,
                barriers_entered: 0
            })
        );
    }

    #[test]
    fn try_run_without_fault_matches_run() {
        let team = Team::single_node(4);
        let out = team.try_run(|ctx| {
            ctx.barrier();
            ctx.rank() * 10
        });
        assert_eq!(out, Ok(vec![0, 10, 20, 30]));
        assert_eq!(team.barriers_entered(0), 1);
        assert_eq!(team.barriers_entered(3), 1);
    }

    #[test]
    fn barrier_counts_stay_rank_uniform() {
        let team = Team::single_node(3);
        let counts = team.run(|ctx| {
            ctx.allreduce_sum_u64(1);
            ctx.share(|| 0u8);
            ctx.barrier();
            ctx.barriers_entered()
        });
        assert!(counts.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(counts[0], 5); // 2 (reduce) + 2 (share) + 1 (explicit)
    }

    #[test]
    #[should_panic(expected = "genuine bug")]
    fn genuine_panics_still_propagate_through_try_run() {
        let team = Team::single_node(2);
        let _ = team.try_run(|ctx| {
            if ctx.rank() == 1 {
                panic!("genuine bug");
            }
            ctx.barrier();
        });
    }

    #[test]
    #[should_panic(
        expected = "the flat off-node exchange path is removed: multi-node teams always route through node leaders"
    )]
    fn asking_for_the_flat_exchange_panics() {
        let team = Team::new(Topology::new(4, 2));
        team.set_hierarchical_exchange(true);
        team.set_hierarchical_exchange(false);
    }

    #[test]
    fn fault_plans_kill_multiple_ranks_at_different_barriers() {
        let team = Team::single_node(4);
        team.set_fault_plans(&[
            FaultPlan {
                rank: 1,
                after_barriers: 2,
            },
            FaultPlan {
                rank: 3,
                after_barriers: 5,
            },
        ]);
        let out = team.try_run(|ctx| {
            for _ in 0..10 {
                ctx.barrier();
            }
        });
        // Rank 1 dies first and poisons the barrier, so rank 3 never survives
        // to its own kill point; the reported fault is deterministic.
        assert_eq!(
            out.unwrap_err(),
            RankFault {
                rank: 1,
                barriers_entered: 2
            }
        );
    }

    #[test]
    fn fault_plans_can_kill_two_ranks_at_the_same_barrier() {
        let team = Team::single_node(4);
        team.set_fault_plans(&[
            FaultPlan {
                rank: 0,
                after_barriers: 1,
            },
            FaultPlan {
                rank: 2,
                after_barriers: 1,
            },
        ]);
        let out = team.try_run(|ctx| {
            for _ in 0..4 {
                ctx.barrier();
            }
        });
        let fault = out.unwrap_err();
        assert!(fault.rank == 0 || fault.rank == 2, "unexpected {fault:?}");
        assert_eq!(fault.barriers_entered, 1);
    }

    #[test]
    fn kill_at_the_first_barrier_races_setup_cleanly() {
        // The victim dies at its very first barrier, typically while some
        // rank threads are still being spawned by `try_run`; late starters
        // must abort on the poisoned barrier, never deadlock or lose the
        // fault. Repeat to sample a few spawn schedules.
        for _ in 0..8 {
            let team = Team::single_node(8);
            team.set_fault_plans(&[FaultPlan {
                rank: 7,
                after_barriers: 0,
            }]);
            let out = team.try_run(|ctx| {
                ctx.barrier();
                ctx.allreduce_sum_u64(1)
            });
            assert_eq!(
                out.unwrap_err(),
                RankFault {
                    rank: 7,
                    barriers_entered: 0
                }
            );
        }
    }

    #[test]
    #[should_panic(expected = "conformance violation")]
    fn rank_skewed_extra_barrier_is_caught_at_the_rendezvous() {
        let team = Team::single_node(2);
        team.set_conformance_checking(true);
        team.run(|ctx| {
            if ctx.rank() == 1 {
                ctx.barrier(); // seeded violation: rank 1 sneaks in an extra barrier
            }
            ctx.barrier();
            ctx.barrier();
        });
    }

    #[test]
    #[should_panic(expected = "conformance violation")]
    fn mismatched_share_payload_shape_is_caught() {
        let team = Team::single_node(2);
        team.set_conformance_checking(true);
        team.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.share(|| 1u64);
            } else {
                ctx.share(|| 1u32);
            }
        });
    }

    #[test]
    #[should_panic(expected = "local_view phase holds it")]
    fn one_sided_op_into_a_held_local_phase_is_caught() {
        let team = Team::single_node(2);
        team.set_conformance_checking(true);
        team.run(|ctx| {
            let token = 0xFEED;
            let guard = (ctx.rank() == 0).then(|| ctx.begin_local_phase(token));
            ctx.barrier();
            if ctx.rank() == 1 {
                ctx.check_one_sided_target(0, token);
            }
            ctx.barrier();
            drop(guard);
        });
    }

    #[test]
    fn dropping_the_local_phase_guard_ends_the_phase() {
        let team = Team::single_node(2);
        team.set_conformance_checking(true);
        team.run(|ctx| {
            let token = 0xBEEF;
            let guard = (ctx.rank() == 0).then(|| ctx.begin_local_phase(token));
            ctx.barrier();
            drop(guard);
            ctx.barrier();
            // Phase over on every rank: remote traffic is legal again.
            ctx.check_one_sided_target(0, token);
        });
    }

    #[test]
    fn conformance_stamps_are_rank_uniform_for_conforming_runs() {
        let team = Team::single_node(3);
        team.run(|ctx| {
            ctx.barrier();
            ctx.allreduce_sum_u64(ctx.rank() as u64);
            ctx.share(|| 3u8);
        });
        let s0 = team.conformance_stamp(0);
        assert!(s0.0 > 0, "collectives must advance the op count");
        for r in 1..3 {
            assert_eq!(team.conformance_stamp(r), s0, "rank {r} stamp diverged");
        }
    }
}
