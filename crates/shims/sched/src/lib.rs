//! Seeded schedule-perturbation shim for race hunting.
//!
//! The PGAS runtime simulates SPMD ranks with OS threads, so the interleavings
//! the test suite happens to observe are whatever the host scheduler serves
//! up. This shim lets a harness (see `mhm_check`) widen that set: sync-heavy
//! code paths in `pgas` and `dht` call [`yield_point`] at interesting moments
//! (barrier entry/exit, mailbox deposit/drain, cache guard acquisition,
//! barrier poisoning), and when perturbation is enabled each visit may inject
//! a `yield_now` or a short sleep, chosen by a seeded xorshift stream mixed
//! with a hash of the call-site label.
//!
//! Design constraints:
//!
//! - **Near-zero cost when disabled**: one relaxed atomic load per visit.
//!   Production and ordinary test runs never pay more than that.
//! - **Bounded**: every enablement carries a perturbation budget; once spent,
//!   all yield points revert to the fast path so a perturbed run terminates
//!   on the same schedule class as an unperturbed one.
//! - **Seeded, not replayable**: the decision stream is deterministic in
//!   (seed, visit order), but visit order itself depends on the schedule the
//!   perturbations produce. Seeds are exploration knobs, not replay keys.
//!
//! Vendored in-workspace (like the `parking_lot`/`rand` shims) so the
//! workspace stays free of crates.io dependencies.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Tuning for one perturbation session.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Seed for the xorshift decision stream.
    pub seed: u64,
    /// Maximum number of perturbations (yields + sleeps) injected before the
    /// shim reverts to the fast path.
    pub max_perturbations: u64,
    /// Upper bound, in microseconds, for an injected sleep.
    pub max_sleep_us: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 1,
            max_perturbations: 2_000,
            max_sleep_us: 100,
        }
    }
}

struct State {
    rng: u64,
    budget: u64,
    max_sleep_us: u64,
    fired: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<State> = Mutex::new(State {
    rng: 0,
    budget: 0,
    max_sleep_us: 0,
    fired: 0,
});

/// Turns perturbation on with the given config. Affects every thread in the
/// process; callers coordinating multiple scenarios should serialise
/// enable/disable windows themselves.
pub fn enable(cfg: Config) {
    let mut s = STATE.lock().unwrap_or_else(|e| e.into_inner());
    // xorshift needs a non-zero state; fold the seed through splitmix-style
    // mixing so small seeds (0, 1, 2, ...) still diverge quickly.
    let mut z = cfg.seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    s.rng = (z ^ (z >> 31)) | 1;
    s.budget = cfg.max_perturbations;
    s.max_sleep_us = cfg.max_sleep_us.max(1);
    s.fired = 0;
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns perturbation off. Yield points revert to a single relaxed load.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether perturbation is currently enabled.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Number of perturbations injected since the last [`enable`].
pub fn perturbations() -> u64 {
    STATE.lock().unwrap_or_else(|e| e.into_inner()).fired
}

/// Marks a schedule-interesting point. `site` labels the call site (e.g.
/// `"pgas::barrier::enter"`) and is mixed into the decision stream so
/// different sites de-correlate even when visited in lockstep.
///
/// Cost when disabled: one relaxed atomic load.
#[inline]
pub fn yield_point(site: &str) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    perturb(site);
}

#[cold]
fn perturb(site: &str) {
    enum Action {
        Nothing,
        Yield,
        Sleep(u64),
    }
    let action = {
        let mut s = STATE.lock().unwrap_or_else(|e| e.into_inner());
        if s.budget == 0 {
            return;
        }
        // FNV-1a over the site label, folded into the xorshift64* state.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in site.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        s.rng ^= h;
        s.rng ^= s.rng << 13;
        s.rng ^= s.rng >> 7;
        s.rng ^= s.rng << 17;
        let r = s.rng.wrapping_mul(0x2545_f491_4f6c_dd1d);
        match r % 4 {
            0 | 1 => Action::Nothing,
            2 => {
                s.budget -= 1;
                s.fired += 1;
                Action::Yield
            }
            _ => {
                s.budget -= 1;
                s.fired += 1;
                Action::Sleep((r >> 8) % s.max_sleep_us + 1)
            }
        }
    };
    // Perform the perturbation outside the state lock so sleeping threads
    // never serialise other yield points.
    match action {
        Action::Nothing => {}
        Action::Yield => std::thread::yield_now(),
        Action::Sleep(us) => std::thread::sleep(Duration::from_micros(us)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ENABLED` and `STATE` are process-global and `cargo test` runs tests on
    /// parallel threads: every test that touches them holds this for its
    /// whole body, or one test's `disable()` lands mid-loop in the other.
    static GLOBAL_SCHEDULE: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_yield_points_are_free_and_fire_nothing() {
        let _serial = GLOBAL_SCHEDULE.lock().unwrap_or_else(|e| e.into_inner());
        disable();
        for _ in 0..1_000 {
            yield_point("test::site");
        }
        assert!(!is_enabled());
    }

    #[test]
    fn budget_bounds_the_number_of_perturbations() {
        let _serial = GLOBAL_SCHEDULE.lock().unwrap_or_else(|e| e.into_inner());
        enable(Config {
            seed: 42,
            max_perturbations: 8,
            max_sleep_us: 5,
        });
        for _ in 0..10_000 {
            yield_point("test::budget");
        }
        let fired = perturbations();
        disable();
        assert!(fired <= 8, "budget overrun: {fired}");
        assert!(fired > 0, "a 10k-visit run should spend some budget");
    }
}
