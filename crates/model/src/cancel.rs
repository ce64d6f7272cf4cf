//! Cooperative cancellation and deadline budgets.
//!
//! Every long-running search in the workspace (the PA restart loop, PA-R
//! iteration loops, the exact floorplanner, the IS-k branch-and-bound) polls a
//! [`CancelToken`] at its checkpoints. A token fires when one of four things
//! happens:
//!
//! * somebody called [`CancelToken::cancel`] (e.g. a portfolio race locking a
//!   winner),
//! * its monotonic deadline passed,
//! * its injectable [`FakeClock`] passed the fake deadline (tests),
//! * the Nth poll was reached ([`CancelToken::fire_on_poll`], the test double
//!   used by the cancellation-sweep harness),
//!
//! or when the token's *parent* fired — child tokens created with
//! [`CancelToken::child`] / [`CancelToken::with_budget`] let an inner search
//! carry its own (shorter) budget while still honouring the caller's
//! deadline. Polls are counted per token (parent checks do not count against
//! the parent), so traces can report exactly how many cancellation points a
//! run crossed and how many of them observed the fired state.
//!
//! The token lives in `prfpga-model` so that leaf crates (the floorplanner,
//! the baselines) can accept one without depending on the scheduler crate;
//! `prfpga-sched` re-exports it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A manually-advanced monotonic clock for deterministic deadline tests.
///
/// Cloning shares the underlying clock: advancing any clone advances all of
/// them, exactly like wall time does for real deadlines.
#[derive(Clone, Debug, Default)]
pub struct FakeClock(Arc<AtomicU64>);

impl FakeClock {
    /// A new clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current fake time since the clock's epoch.
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.0.load(Ordering::Acquire))
    }

    /// Advance the clock by `delta`. Monotonic: time never goes backwards.
    pub fn advance(&self, delta: Duration) {
        let nanos = u64::try_from(delta.as_nanos()).unwrap_or(u64::MAX);
        self.0.fetch_add(nanos, Ordering::AcqRel);
    }
}

/// How a token's deadline is measured.
#[derive(Clone, Debug)]
enum DeadlineSpec {
    /// Fires once `Instant::now()` reaches the instant.
    Real(Instant),
    /// Fires once the injected [`FakeClock`] reaches `at`.
    Fake { clock: FakeClock, at: Duration },
}

impl DeadlineSpec {
    fn passed(&self) -> bool {
        match self {
            DeadlineSpec::Real(at) => Instant::now() >= *at,
            DeadlineSpec::Fake { clock, at } => clock.now() >= *at,
        }
    }
}

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    polls: AtomicU64,
    hits: AtomicU64,
    /// 1-based poll index at which the token fires on its own; 0 disables.
    fire_at_poll: u64,
    deadline: Option<DeadlineSpec>,
    parent: Option<CancelToken>,
}

/// Cooperative cancellation token: atomic flag + optional monotonic deadline.
///
/// Cheap to clone (an `Arc`); every clone shares the same flag and counters.
/// Searches call [`is_cancelled`](Self::is_cancelled) at their checkpoints and
/// unwind cleanly — rewinding their workspace — when it returns `true`.
#[derive(Clone, Debug)]
pub struct CancelToken(Arc<Inner>);

impl Default for CancelToken {
    fn default() -> Self {
        Self::never()
    }
}

impl CancelToken {
    fn build(
        fire_at_poll: u64,
        deadline: Option<DeadlineSpec>,
        parent: Option<CancelToken>,
    ) -> Self {
        CancelToken(Arc::new(Inner {
            cancelled: AtomicBool::new(false),
            polls: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            fire_at_poll,
            deadline,
            parent,
        }))
    }

    /// A token that never fires on its own (it can still be
    /// [`cancel`](Self::cancel)led explicitly).
    pub fn never() -> Self {
        Self::build(0, None, None)
    }

    /// A token whose deadline is `budget` from now (wall clock).
    pub fn after(budget: Duration) -> Self {
        Self::build(0, Some(DeadlineSpec::Real(Instant::now() + budget)), None)
    }

    /// A token firing at the given wall-clock instant.
    pub fn at(deadline: Instant) -> Self {
        Self::build(0, Some(DeadlineSpec::Real(deadline)), None)
    }

    /// A token firing once `clock` reaches `at` — deterministic deadline
    /// behaviour for tests.
    pub fn fake(clock: &FakeClock, at: Duration) -> Self {
        Self::build(
            0,
            Some(DeadlineSpec::Fake {
                clock: clock.clone(),
                at,
            }),
            None,
        )
    }

    /// Test double: fires on the `n`-th call to
    /// [`is_cancelled`](Self::is_cancelled) (1-based) and stays fired.
    ///
    /// `n = 0` is clamped to 1 (fires on the first poll).
    pub fn fire_on_poll(n: u64) -> Self {
        Self::build(n.max(1), None, None)
    }

    /// A child token with no budget of its own: it fires exactly when `self`
    /// fires, but keeps separate poll counters. Parent checks do not count as
    /// parent polls.
    pub fn child(&self) -> Self {
        Self::build(0, None, Some(self.clone()))
    }

    /// A child token that additionally carries its own wall-clock budget of
    /// `budget` from now — whichever of the two deadlines comes first wins.
    ///
    /// This is how a server request's or a portfolio member's deadline is
    /// layered under an outer token.
    pub fn with_budget(&self, budget: Duration) -> Self {
        Self::build(
            0,
            Some(DeadlineSpec::Real(Instant::now() + budget)),
            Some(self.clone()),
        )
    }

    /// Latch the token into the fired state.
    pub fn cancel(&self) {
        self.0.cancelled.store(true, Ordering::Release);
    }

    /// Whether the token has fired, *without* counting a poll. Used for
    /// parent checks and cheap peeks outside the counted checkpoints.
    pub fn fired(&self) -> bool {
        self.fired_at(self.0.polls.load(Ordering::Acquire))
    }

    fn fired_at(&self, poll_index: u64) -> bool {
        if self.0.cancelled.load(Ordering::Acquire) {
            return true;
        }
        let fired = (self.0.fire_at_poll != 0 && poll_index >= self.0.fire_at_poll)
            || self.0.deadline.as_ref().is_some_and(|d| d.passed())
            || self.0.parent.as_ref().is_some_and(|p| p.fired());
        if fired {
            // Latch: deadlines are monotonic and poll counts only grow, so
            // once fired the token stays fired; the flag makes later checks
            // cheap and makes `fired()` stable even for poll-based doubles.
            self.0.cancelled.store(true, Ordering::Release);
        }
        fired
    }

    /// The cancellation checkpoint. Increments the poll counter, then reports
    /// whether the token has fired; a `true` result is also counted as a
    /// deadline *hit*. Callers must unwind cleanly on `true`.
    pub fn is_cancelled(&self) -> bool {
        let poll_index = self.0.polls.fetch_add(1, Ordering::AcqRel) + 1;
        let fired = self.fired_at(poll_index);
        if fired {
            self.0.hits.fetch_add(1, Ordering::AcqRel);
        }
        fired
    }

    /// Number of [`is_cancelled`](Self::is_cancelled) checkpoints crossed.
    pub fn polls(&self) -> u64 {
        self.0.polls.load(Ordering::Acquire)
    }

    /// Number of checkpoints that observed the fired state.
    pub fn deadline_hits(&self) -> u64 {
        self.0.hits.load(Ordering::Acquire)
    }
}

/// Declarative latency budget for a scheduling call.
///
/// `Budget` is the configuration-level view ("this call may take 50 ms");
/// [`Budget::token`] mints the runtime [`CancelToken`] that enforces it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock budget for the call; `None` means unbounded.
    pub deadline: Option<Duration>,
}

impl Budget {
    /// No deadline: the minted token never fires on its own.
    pub fn unbounded() -> Self {
        Self { deadline: None }
    }

    /// A wall-clock budget of `deadline` from the moment the token is minted.
    pub fn with_deadline(deadline: Duration) -> Self {
        Self {
            deadline: Some(deadline),
        }
    }

    /// Convenience constructor mirroring the CLI `--deadline-ms` flag.
    pub fn deadline_ms(ms: u64) -> Self {
        Self::with_deadline(Duration::from_millis(ms))
    }

    /// Mint the enforcing token, starting the clock now.
    pub fn token(&self) -> CancelToken {
        match self.deadline {
            Some(d) => CancelToken::after(d),
            None => CancelToken::never(),
        }
    }

    /// Mint a token measured against an injected [`FakeClock`] instead of
    /// wall time (tests).
    pub fn token_on(&self, clock: &FakeClock) -> CancelToken {
        match self.deadline {
            Some(d) => CancelToken::fake(clock, clock.now() + d),
            None => CancelToken::never(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_token_never_fires_but_counts_polls() {
        let t = CancelToken::never();
        for _ in 0..5 {
            assert!(!t.is_cancelled());
        }
        assert_eq!(t.polls(), 5);
        assert_eq!(t.deadline_hits(), 0);
        assert!(!t.fired());
    }

    #[test]
    fn explicit_cancel_latches() {
        let t = CancelToken::never();
        let clone = t.clone();
        assert!(!t.is_cancelled());
        clone.cancel();
        assert!(t.fired());
        assert!(t.is_cancelled());
        assert!(t.is_cancelled());
        assert_eq!(t.polls(), 3);
        assert_eq!(t.deadline_hits(), 2);
    }

    #[test]
    fn fire_on_nth_poll() {
        let t = CancelToken::fire_on_poll(3);
        assert!(!t.is_cancelled());
        assert!(!t.is_cancelled());
        assert!(t.is_cancelled());
        assert!(t.is_cancelled(), "stays fired after the Nth poll");
        assert_eq!(t.polls(), 4);
        assert_eq!(t.deadline_hits(), 2);
    }

    #[test]
    fn fire_on_poll_zero_clamps_to_first() {
        let t = CancelToken::fire_on_poll(0);
        assert!(t.is_cancelled());
    }

    #[test]
    fn fake_clock_deadline_is_deterministic() {
        let clock = FakeClock::new();
        let t = CancelToken::fake(&clock, Duration::from_millis(10));
        assert!(!t.is_cancelled());
        clock.advance(Duration::from_millis(9));
        assert!(!t.is_cancelled());
        clock.advance(Duration::from_millis(1));
        assert!(t.is_cancelled());
        // Fired state latches even though fake clocks could not rewind anyway.
        assert!(t.fired());
    }

    #[test]
    fn child_fires_with_parent_without_counting_parent_polls() {
        let parent = CancelToken::never();
        let child = parent.child();
        assert!(!child.is_cancelled());
        parent.cancel();
        assert!(child.is_cancelled());
        assert_eq!(child.polls(), 2);
        assert_eq!(child.deadline_hits(), 1);
        assert_eq!(parent.polls(), 0, "parent checks use fired(), not polls");
    }

    #[test]
    fn with_budget_layers_inner_deadline_under_parent() {
        let clock = FakeClock::new();
        let parent = CancelToken::fake(&clock, Duration::from_millis(5));
        // Inner budget is effectively infinite; the parent fires first.
        let inner = parent.with_budget(Duration::from_secs(3600));
        assert!(!inner.is_cancelled());
        clock.advance(Duration::from_millis(5));
        assert!(inner.is_cancelled());
    }

    #[test]
    fn budget_minting() {
        assert!(!Budget::unbounded().token().fired());
        assert_eq!(
            Budget::deadline_ms(50),
            Budget::with_deadline(Duration::from_millis(50))
        );
        let clock = FakeClock::new();
        let t = Budget::deadline_ms(1).token_on(&clock);
        assert!(!t.fired());
        clock.advance(Duration::from_millis(1));
        assert!(t.fired());
    }
}
