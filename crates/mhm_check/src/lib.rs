//! Schedule-perturbing race harness for the PGAS runtime.
//!
//! Every scenario in this crate is a small SPMD program with a property that
//! must hold under *any* thread interleaving: mailbox reuse stays
//! linearizable, back-to-back aggregators never alias each other's leases,
//! live collectives that share a mailbox type (blobs and `Vec<u8>` items)
//! never see each other's deposits, a killed rank's poison reaches every
//! survivor (nobody deadlocks), cached reads agree with the authoritative table, and the alignment collective
//! gives the one-rank answer when some ranks run out of reads long before
//! others. The harness runs each
//! scenario with the [`mhm_sched`] shim enabled, which injects seeded
//! yields and micro-sleeps at the runtime's `yield_point` call sites —
//! barrier entry/exit, mailbox deposit/drain, cache probes — so
//! interleavings that an unloaded test machine would effectively never
//! produce are explored deliberately.
//!
//! Exploration is *seeded*: a seed picks a deterministic sequence of
//! perturbation decisions, and the CLI sweeps a seed range. It is not
//! *replayable* — the decisions are deterministic, but which thread reaches
//! a yield point first still depends on the OS scheduler — so a failing
//! seed is a strong hint, not a guaranteed reproduction. Every scenario
//! runs under a watchdog ([`std::sync::mpsc::Receiver::recv_timeout`]); a
//! watchdog expiry is itself a failure verdict, because the one acceptable
//! outcome of a kill is an orderly [`pgas::RankFault`] on every survivor,
//! never a hang.
//!
//! Scenarios are serialized behind a process-global lock: the scheduler
//! shim is process-wide state, and two scenarios perturbing each other
//! would destroy the seed's meaning.

use pgas::{Counter, FaultPlan, RankFault, Team, Topology};
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// One scenario's verdict for one seed.
#[derive(Debug)]
pub struct ScenarioResult {
    /// Scenario name (stable identifier, used in CLI output).
    pub name: &'static str,
    /// The perturbation seed the scenario ran under.
    pub seed: u64,
    /// `Ok(())` or a failure description (assertion text, panic payload, or
    /// a watchdog-expiry diagnosis).
    pub outcome: Result<(), String>,
}

/// Exploration parameters for one scenario run.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Upper bound on injected perturbations (yields + sleeps) per run.
    pub max_perturbations: u64,
    /// Upper bound on a single injected sleep, in microseconds.
    pub max_sleep_us: u64,
    /// Watchdog timeout; expiry is reported as a suspected deadlock.
    pub watchdog: Duration,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_perturbations: 2_000,
            max_sleep_us: 50,
            watchdog: Duration::from_secs(60),
        }
    }
}

/// Serializes scenarios: the scheduler shim is process-global.
static SCENARIO_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`SCENARIO_LOCK`]; a scenario that panicked while holding it left
/// nothing to repair, so a poisoned lock is taken as it is.
fn serialize() -> MutexGuard<'static, ()> {
    SCENARIO_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(f) = payload.downcast_ref::<RankFault>() {
        format!("unhandled {f:?}")
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `body` with the scheduler shim enabled at `seed` under a watchdog.
///
/// The shim is enabled before the scenario thread starts and disabled
/// before this function returns, in both the completed and the timed-out
/// case. A timed-out scenario thread is leaked — it is by definition stuck
/// inside the runtime, and there is no safe way to unwind someone else's
/// deadlock — but with the shim already disabled it cannot perturb later
/// scenarios.
fn run_scenario(
    name: &'static str,
    seed: u64,
    budget: Budget,
    body: fn(u64) -> Result<(), String>,
) -> ScenarioResult {
    let _serial = serialize();
    run_serialized(name, seed, budget, body)
}

/// [`run_scenario`] for a caller that holds the scenario lock.
fn run_serialized(
    name: &'static str,
    seed: u64,
    budget: Budget,
    body: fn(u64) -> Result<(), String>,
) -> ScenarioResult {
    mhm_sched::enable(mhm_sched::Config {
        seed,
        max_perturbations: budget.max_perturbations,
        max_sleep_us: budget.max_sleep_us,
    });
    let (tx, rx) = mpsc::channel();
    let spawned = std::thread::Builder::new()
        .name(format!("mhm_check::{name}"))
        .spawn(move || {
            let verdict = std::panic::catch_unwind(AssertUnwindSafe(|| body(seed)));
            let _ = tx.send(verdict);
        });
    let outcome = match spawned {
        Err(e) => Err(format!("failed to spawn scenario thread: {e}")),
        Ok(handle) => match rx.recv_timeout(budget.watchdog) {
            Ok(verdict) => {
                let _ = handle.join();
                match verdict {
                    Ok(inner) => inner,
                    Err(payload) => Err(format!("panicked: {}", panic_message(payload))),
                }
            }
            Err(_) => Err(format!(
                "watchdog expired after {:?}: a survivor rank is deadlocked (poison did not \
                 propagate, or a collective lost a participant)",
                budget.watchdog
            )),
        },
    };
    mhm_sched::disable();
    ScenarioResult {
        name,
        seed,
        outcome,
    }
}

// ---------------------------------------------------------------------------
// Scenario bodies.
// ---------------------------------------------------------------------------

/// Mailbox-reuse linearizability: the same team exchanges phase-tagged
/// payloads over many rounds, reusing the pooled mailbox slots every time.
/// Each inbox must hold exactly one item per sender, all carrying the
/// *current* phase tag — a stale deposit surviving a slot's reuse, or a
/// deposit leaking between phases, shows up as a foreign tag or a bad count.
fn mailbox_linearizability(_seed: u64) -> Result<(), String> {
    const RANKS: usize = 4;
    const PHASES: u64 = 8;
    let team = Team::new(Topology::new(RANKS, 2));
    let results = team.run(|ctx| {
        for phase in 0..PHASES {
            let src = ctx.rank() as u64;
            let outgoing: Vec<Vec<u64>> = (0..ctx.ranks() as u64)
                .map(|dst| vec![phase * 1_000_000 + src * 1_000 + dst])
                .collect();
            let mut inbox = ctx.exchange(outgoing);
            inbox.sort_unstable();
            let want: Vec<u64> = (0..ctx.ranks() as u64)
                .map(|sender| phase * 1_000_000 + sender * 1_000 + src)
                .collect();
            if inbox != want {
                return Err(format!(
                    "rank {} phase {phase}: inbox {inbox:?} != expected {want:?}",
                    ctx.rank()
                ));
            }
        }
        Ok(())
    });
    results.into_iter().collect::<Result<Vec<()>, _>>()?;
    Ok(())
}

/// Back-to-back same-typed aggregators reusing one slot pool: every
/// iteration runs two `Aggregator<u64>` rounds in disjoint value bands,
/// each finishing before the next begins. A finish that fails to drain its
/// lease, or a lease handed out before the previous round's trailing
/// barrier completed, delivers a foreign-band item to the next round.
fn aggregator_slot_reuse(_seed: u64) -> Result<(), String> {
    const RANKS: usize = 4;
    const ITEMS: u64 = 8;
    let team = Team::new(Topology::single_node(RANKS));
    let results = team.run(|ctx| {
        for round in 0u64..4 {
            for band in [1_000u64, 2_000_000] {
                let mut agg = pgas::Aggregator::<u64>::new(ctx, 3);
                for i in 0..ITEMS {
                    let dst = (i as usize + ctx.rank()) % ctx.ranks();
                    agg.push(dst, band + round * ITEMS + i);
                }
                let got = agg.finish();
                if got.len() != ITEMS as usize {
                    return Err(format!(
                        "rank {} round {round} band {band}: received {} items, expected {ITEMS}",
                        ctx.rank(),
                        got.len()
                    ));
                }
                let (lo, hi) = (band + round * ITEMS, band + round * ITEMS + ITEMS - 1);
                if let Some(&stale) = got.iter().find(|&&v| v < lo || v > hi) {
                    return Err(format!(
                        "rank {} round {round} band {band}: item {stale} escapes [{lo}, {hi}] — \
                         a deposit from another aggregation round leaked through slot reuse",
                        ctx.rank()
                    ));
                }
            }
        }
        Ok(())
    });
    results.into_iter().collect::<Result<Vec<()>, _>>()?;
    Ok(())
}

/// Every `[tag, phase, dest, src, i]` record in `got` must carry `tag` and
/// `phase`, be addressed to this rank, and the `(src, i)` pairs must be exactly
/// the sorted `want` — each once.
fn check_records(
    ctx: &pgas::Ctx,
    (face, tag): (&str, u8),
    phase: u8,
    got: &[u8],
    want: &[(u8, u8)],
) -> Result<(), String> {
    let mut seen = Vec::new();
    for rec in got.chunks(5) {
        if rec.len() != 5 || rec[0] != tag || rec[1] != phase || rec[2] as usize != ctx.rank() {
            return Err(format!(
                "rank {} phase {phase}: {face} delivered a foreign or stale record {rec:?}",
                ctx.rank()
            ));
        }
        seen.push((rec[3], rec[4]));
    }
    seen.sort_unstable();
    if seen != want {
        return Err(format!(
            "rank {} phase {phase}: {face} delivered {seen:?}, expected each of {want:?} once",
            ctx.rank()
        ));
    }
    Ok(())
}

/// Same-typed collectives live together under two-level routing: a
/// `BlobAggregator` ships `Vec<u8>` blobs through the same pooled mailbox type
/// as an `Aggregator<Vec<u8>>` and a `Ctx::exchange::<Vec<u8>>`, and only
/// lease indices keep two live ones apart. Both aggregators push interleaved,
/// finish in alternating orders, and an exchange runs between phases; every
/// record must reach its owner exactly once, with no cross-talk.
fn same_typed_collectives(_seed: u64) -> Result<(), String> {
    const RANKS: usize = 4;
    const ITEMS: usize = 24;
    let team = Team::new(Topology::new(RANKS, 2));
    team.set_hierarchical_exchange(true);
    let results = team.run(|ctx| {
        let (r, n) = (ctx.rank(), ctx.ranks());
        let rec = |tag: u8, phase: u8, dest: usize, i: usize| {
            vec![tag, phase, dest as u8, r as u8, i as u8]
        };
        // Item `i` of rank `src` goes to `(i + src) % n`; the exchange sends
        // item 0 to everyone.
        let senders: Vec<(u8, u8)> = (0..n as u8).map(|src| (src, 0)).collect();
        let want: Vec<(u8, u8)> = (0..n)
            .flat_map(|src| {
                (0..ITEMS)
                    .filter(move |i| (i + src) % n == r)
                    .map(move |i| (src as u8, i as u8))
            })
            .collect();
        for phase in 0u8..4 {
            let mut blobs = pgas::BlobAggregator::new(ctx, 8);
            let mut items = pgas::Aggregator::<Vec<u8>>::new(ctx, 3);
            for i in 0..ITEMS {
                let dest = (i + r) % n;
                blobs.push_record(dest, &rec(b'B', phase, dest, i));
                items.push(dest, rec(b'A', phase, dest, i));
            }
            let (got_blobs, got_items) = if phase % 2 == 0 {
                let blobs = blobs.finish();
                (blobs, items.finish())
            } else {
                let items = items.finish();
                (blobs.finish(), items)
            };
            let exchanged =
                ctx.exchange((0..n).map(|dest| vec![rec(b'X', phase, dest, 0)]).collect());
            let blob = ("BlobAggregator", b'B');
            check_records(ctx, blob, phase, &got_blobs.concat(), &want)?;
            let item = ("Aggregator<Vec<u8>>", b'A');
            check_records(ctx, item, phase, &got_items.concat(), &want)?;
            let exchange = ("exchange::<Vec<u8>>", b'X');
            check_records(ctx, exchange, phase, &exchanged.concat(), &senders)?;
        }
        Ok::<(), String>(())
    });
    results.into_iter().collect::<Result<Vec<()>, _>>()?;
    Ok(())
}

/// Poison propagation: a planned kill must end the whole team with an
/// orderly `RankFault`; any survivor blocking forever trips the watchdog.
fn poison_propagation(_seed: u64) -> Result<(), String> {
    const RANKS: usize = 4;
    let team = Team::new(Topology::new(RANKS, 2));
    team.set_fault_plans(&[FaultPlan {
        rank: 2,
        after_barriers: 3,
    }]);
    let result = team.try_run(|ctx| {
        for _ in 0..16 {
            let outgoing: Vec<Vec<u64>> = vec![vec![ctx.rank() as u64]; ctx.ranks()];
            let _ = ctx.exchange(outgoing);
            ctx.barrier();
        }
    });
    match result {
        Err(RankFault { rank: 2, .. }) => Ok(()),
        Err(other) => Err(format!("wrong fault surfaced: {other:?}")),
        Ok(_) => Err("planned kill of rank 2 never fired".to_string()),
    }
}

/// Multi-kill poison propagation: two ranks die at different barriers; the
/// run must still end with a `RankFault` for one of them (the earlier kill
/// normally wins, but perturbation may reorder the panics) and no survivor
/// may hang.
fn poison_propagation_multi_kill(_seed: u64) -> Result<(), String> {
    const RANKS: usize = 4;
    let team = Team::new(Topology::new(RANKS, 2));
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
    let result = team.try_run(|ctx| {
        for _ in 0..16 {
            ctx.barrier();
        }
    });
    match result {
        Err(RankFault { rank, .. }) if rank == 1 || rank == 3 => Ok(()),
        Err(other) => Err(format!("wrong fault surfaced: {other:?}")),
        Ok(_) => Err("neither planned kill fired".to_string()),
    }
}

/// The table both `CachedView` scenarios read: key `k < keys` holds
/// `3k + 1`, every other key is absent. Collective.
fn view_table(ctx: &pgas::Ctx, keys: u64) -> std::sync::Arc<dht::DistMap<u64, u64>> {
    let map = dht::DistMap::<u64, u64>::shared(ctx);
    let mine: Vec<(u64, u64)> = (0..keys)
        .filter(|k| k % ctx.ranks() as u64 == ctx.rank() as u64)
        .map(|k| (k, k * 3 + 1))
        .collect();
    dht::bulk_merge(ctx, &map, mine, 16, |slot, v| *slot = v);
    map
}

/// `Err` naming the first of `keys` whose read in `got` is not what
/// [`view_table`] holds for it.
fn check_view_read(
    ctx: &pgas::Ctx,
    label: &str,
    table_keys: u64,
    keys: &[u64],
    got: &[Option<u64>],
) -> Result<(), String> {
    let want = |k: u64| (k < table_keys).then_some(k * 3 + 1);
    match keys.iter().zip(got).find(|(k, v)| want(**k) != **v) {
        None => Ok(()),
        Some(bad) => Err(format!(
            "rank {}: {label} read diverges from the table at {bad:?}",
            ctx.rank()
        )),
    }
}

/// Cached reads agree with the authoritative table under perturbation: a
/// `CachedView`'s miss path (aggregated remote fetch), its hit/evict path
/// (the cache is far smaller than the key set) and the table's own bulk
/// lookup must all return the same values.
fn cached_view_consistency(_seed: u64) -> Result<(), String> {
    const RANKS: usize = 4;
    const KEYS: u64 = 192;
    let team = Team::new(Topology::new(RANKS, 2));
    let results = team.run(|ctx| {
        let map = view_table(ctx, KEYS);
        let keys: Vec<u64> = (0..KEYS).collect();
        let mut view = dht::CachedView::new(&map, 64, 16);
        let cold = view.get_many(ctx, &keys);
        let warm = view.get_many(ctx, &keys);
        ctx.barrier();
        let direct = map.get_many(ctx, &keys, 16);
        check_view_read(ctx, "cold", KEYS, &keys, &cold)?;
        check_view_read(ctx, "warm", KEYS, &keys, &warm)?;
        check_view_read(ctx, "direct", KEYS, &keys, &direct)
    });
    results.into_iter().collect::<Result<Vec<()>, _>>()?;
    Ok(())
}

/// The one-sided, weighted, foreign-only fill — the loop both the contig and
/// the read store readers run — in the work-stealing shape: every rank issues
/// a *different* number of fills with no collective between them, against a
/// table far larger than the cache, over windows that overlap its own earlier
/// ones (hits, evictions, refetches), repeat keys inside a batch and run past
/// the table's end (absences). Every read must equal the table.
fn cached_view_onesided_fill(_seed: u64) -> Result<(), String> {
    const RANKS: usize = 4;
    const KEYS: u64 = 512;
    /// At 8 bytes a value the cache holds 24 of the 512 values.
    const CACHE_BYTES: usize = 192;
    let team = Team::new(Topology::new(RANKS, 2));
    let results = team.run(|ctx| {
        let map = view_table(ctx, KEYS);
        let mut view = dht::CachedView::new_weighted(
            &map,
            CACHE_BYTES,
            16,
            |_: &u64| 8,
            dht::Residency {
                owned: 0,
                fetched: Counter::contig_fetch_bytes,
                resident: Counter::contig_bytes_resident,
            },
        );
        let mut verdict = Ok(());
        for fill in 0..5 + 4 * ctx.rank() as u64 {
            let start = fill * 29 + ctx.rank() as u64 * 131;
            let keys: Vec<u64> = (0..48).map(|i| (start + i % 40) % (KEYS + 16)).collect();
            let got = view.get_many_onesided(ctx, &keys);
            verdict = verdict.and(check_view_read(ctx, "one-sided", KEYS, &keys, &got));
            if view.cache().resident_weight() > CACHE_BYTES {
                verdict = verdict.and(Err(format!("rank {}: cache over its bound", ctx.rank())));
            }
        }
        // The table is dropped only after the slowest rank's last probe.
        ctx.barrier();
        verdict
    });
    results.into_iter().collect::<Result<Vec<()>, _>>()?;
    Ok(())
}

/// The alignment collective with uneven ranks: one rank holds no reads at
/// all and the others hold very different numbers of read blocks, so most
/// block rounds — the stop vote, the foreign-seed fetch, the contig fetch —
/// run with some ranks long done and serving empty batches. The seed index is
/// built from the contig store. Every rank's alignments must equal what one
/// rank computes for the same reads.
fn alignment_uneven_ranks(_seed: u64) -> Result<(), String> {
    const RANKS: usize = 4;
    const READS: usize = 64;
    const READ_LEN: usize = 60;
    // One xorshift stream makes the contigs; the reads are windows of them.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut base = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        b"ACGT"[(state % 4) as usize]
    };
    let genome: Vec<u8> = (0..1200).map(|_| base()).collect();
    let contigs = dbg::ContigSet::from_sequences(
        21,
        genome.chunks(300).map(|c| (c.to_vec(), 10.0)).collect(),
    );
    let reads: Vec<(seqio::ReadId, seqio::Read)> = (0..READS)
        .map(|i| {
            let at = (i * 37) % (genome.len() - READ_LEN);
            let mut seq = genome[at..at + READ_LEN].to_vec();
            if i % 3 == 0 {
                seq = seqio::alphabet::revcomp(&seq);
            }
            let read = seqio::Read::with_uniform_quality(format!("r{i}"), &seq, 35);
            (i as seqio::ReadId, read)
        })
        .collect();
    // Two reads fill a block of 16 lookups: rank 2 runs ~20 rounds, rank 0 none.
    let params = aligner::AlignParams {
        seed_len: 15,
        stride: 6,
        min_aligned_len: 20,
        cache_capacity: 8,
        lookup_batch: 16,
        ..Default::default()
    };
    let align = |ctx: &pgas::Ctx, mine: Vec<(seqio::ReadId, seqio::Read)>| {
        let store = dbg::ContigStore::build(ctx, &contigs, &Default::default());
        let contigs = dbg::ContigsRef::Store(&store);
        let index = aligner::build_seed_index_ref(ctx, contigs, params.seed_len);
        let set = aligner::align_reads_ref(ctx, mine, contigs, &index, &params);
        // The store is dropped only after the slowest rank's last fetch.
        ctx.barrier();
        set.alignments
    };
    let serial = Team::single_node(1)
        .run(|ctx| align(ctx, reads.clone()))
        .remove(0);
    if serial.len() < READS {
        return Err(format!("only {} of {READS} reads aligned", serial.len()));
    }
    let owner = |id: seqio::ReadId| [2, 1, 2, 3, 2, 2, 3, 2][id as usize % 8];
    let team = Team::new(Topology::new(RANKS, 2));
    let per_rank = team.run(|ctx| {
        let mine = reads.iter().filter(|(id, _)| owner(*id) == ctx.rank());
        align(ctx, mine.cloned().collect())
    });
    for (rank, got) in per_rank.iter().enumerate() {
        let want: Vec<_> = serial.iter().filter(|a| owner(a.read_id) == rank).collect();
        if got.iter().ne(want.iter().copied()) {
            return Err(format!(
                "rank {rank}: {} alignments diverge from the 1-rank answer's {}",
                got.len(),
                want.len()
            ));
        }
    }
    Ok(())
}

/// A scenario body: takes the perturbation seed, returns the verdict.
pub type ScenarioFn = fn(u64) -> Result<(), String>;

/// The scenario registry, in the order the CLI runs them.
pub const SCENARIOS: &[(&str, ScenarioFn)] = &[
    ("mailbox_linearizability", mailbox_linearizability),
    ("aggregator_slot_reuse", aggregator_slot_reuse),
    ("same_typed_collectives", same_typed_collectives),
    ("poison_propagation", poison_propagation),
    (
        "poison_propagation_multi_kill",
        poison_propagation_multi_kill,
    ),
    ("cached_view_consistency", cached_view_consistency),
    ("cached_view_onesided_fill", cached_view_onesided_fill),
    ("alignment_uneven_ranks", alignment_uneven_ranks),
];

/// Runs every scenario once at `seed` and returns all verdicts.
pub fn run_all(seed: u64, budget: Budget) -> Vec<ScenarioResult> {
    SCENARIOS
        .iter()
        .map(|&(name, body)| run_scenario(name, seed, budget, body))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_budget() -> Budget {
        Budget {
            max_perturbations: 200,
            max_sleep_us: 20,
            watchdog: Duration::from_secs(120),
        }
    }

    #[test]
    fn every_scenario_passes_under_a_small_perturbation_budget() {
        for seed in [1u64, 2] {
            for result in run_all(seed, small_budget()) {
                assert!(
                    result.outcome.is_ok(),
                    "{} failed at seed {}: {}",
                    result.name,
                    result.seed,
                    result.outcome.as_ref().unwrap_err()
                );
            }
        }
    }

    #[test]
    fn watchdog_reports_a_hang_instead_of_blocking_forever() {
        fn hangs(_seed: u64) -> Result<(), String> {
            std::thread::sleep(Duration::from_secs(3600));
            Ok(())
        }
        let serial = serialize();
        let r = run_serialized(
            "hang_probe",
            1,
            Budget {
                watchdog: Duration::from_millis(100),
                ..small_budget()
            },
            hangs,
        );
        // Read while the lock is held: once it is released, a scenario of
        // another test may enable the shim.
        let left_enabled = mhm_sched::is_enabled();
        drop(serial);
        let msg = r.outcome.unwrap_err();
        assert!(msg.contains("watchdog expired"), "got: {msg}");
        assert!(!left_enabled, "shim left enabled after timeout");
    }
}
