//! The compilation supervisor: budgets, panic isolation, and fault
//! injection.
//!
//! Long-running mapping and training loops need three guarantees to be
//! embeddable in a larger toolchain (a DSE driver, a CI pipeline, an
//! interactive session):
//!
//! 1. **Interruptibility** — every loop level (MCTS simulations, agent
//!    episodes, trainer epochs, the compiler's II search) polls one
//!    shared [`Budget`] combining a wall-clock deadline with a
//!    node-expansion allowance, so a stuck search stops *mid-decision*
//!    rather than at the next episode boundary.
//! 2. **Containment** — a panic in one mapping attempt or self-play
//!    episode is converted by [`isolated`] into an error value
//!    ([`MapError::Internal`]) instead of unwinding through the caller.
//! 3. **Testability** — deterministic fault injection lives in
//!    [`failpoint`](mod@crate::failpoint): named sites threaded through routing,
//!    inference, training and checkpoint I/O let integration tests
//!    prove the two properties above without patching production code
//!    paths.
//!
//! See DESIGN.md §Robustness for the full failure-handling contract.

use crate::mapping::MapError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A composite work budget shared across loop levels.
///
/// Combines an optional wall-clock deadline with an optional expansion
/// allowance. The expansion counter is shared (`Arc`) so sliced budgets
/// ([`Budget::slice`]) drain the same pool as their parent: the
/// compiler hands each mapping attempt a time slice, yet the total
/// number of search-tree expansions across all attempts stays bounded.
///
/// Cloning shares the counter; a clone is *the same* budget viewed from
/// another loop.
#[derive(Debug, Clone)]
pub struct Budget {
    deadline: Option<Instant>,
    spent: Arc<AtomicU64>,
    max_expansions: Option<u64>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget that never expires.
    #[must_use]
    pub fn unlimited() -> Self {
        Budget { deadline: None, spent: Arc::new(AtomicU64::new(0)), max_expansions: None }
    }

    /// A budget expiring `limit` from now. A `limit` too large for the
    /// clock to represent (e.g. `Duration::MAX`) is treated as
    /// unbounded rather than panicking on `Instant` overflow.
    #[must_use]
    pub fn with_deadline(limit: Duration) -> Self {
        Budget { deadline: Instant::now().checked_add(limit), ..Budget::unlimited() }
    }

    /// A budget expiring at the absolute instant `deadline`.
    ///
    /// This is how a queued request charges its queue wait against its
    /// own deadline: the instant is fixed at enqueue time, so however
    /// long the request waits for a worker, the mapping work gets only
    /// what remains (possibly nothing — the budget may already be
    /// expired when work starts). Compose with the same `checked_add`
    /// contract as [`Budget::with_deadline`]: callers deriving the
    /// instant from `enqueue + timeout` should treat an overflowing
    /// `Instant::checked_add` as unbounded, e.g.
    /// `enqueue.checked_add(t).map_or_else(Budget::unlimited, Budget::from_deadline_at)`.
    #[must_use]
    pub fn from_deadline_at(deadline: Instant) -> Self {
        Budget { deadline: Some(deadline), ..Budget::unlimited() }
    }

    /// The absolute deadline, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Cap the total number of charged expansions. A cap already set
    /// is never loosened: the smaller of the two holds.
    #[must_use]
    pub fn with_expansion_cap(mut self, cap: u64) -> Self {
        self.max_expansions = Some(self.max_expansions.map_or(cap, |own| own.min(cap)));
        self
    }

    /// A sub-budget expiring after `slice` or at this budget's own
    /// deadline, whichever comes first. Expansions charged to the slice
    /// drain the parent's pool.
    ///
    /// Saturating on both ends: a slice taken *after* the parent
    /// deadline is already expired (never a negative-duration panic),
    /// and a `slice` too large for the clock (e.g. `Duration::MAX`)
    /// falls back to the parent deadline instead of overflowing
    /// `Instant` arithmetic.
    #[must_use]
    pub fn slice(&self, slice: Duration) -> Budget {
        let sliced = Instant::now().checked_add(slice);
        let deadline = match (self.deadline, sliced) {
            (Some(own), Some(s)) => Some(own.min(s)),
            (Some(own), None) => Some(own),
            (None, s) => s,
        };
        Budget { deadline, spent: Arc::clone(&self.spent), max_expansions: self.max_expansions }
    }

    /// Charge `n` units of search work (tree expansions, placements).
    pub fn charge(&self, n: u64) {
        self.spent.fetch_add(n, Ordering::Relaxed);
    }

    /// Expansions charged so far (shared across slices).
    #[must_use]
    pub fn spent(&self) -> u64 {
        self.spent.load(Ordering::Relaxed)
    }

    /// True when the wall-clock deadline has passed.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// True when the expansion allowance is used up.
    #[must_use]
    pub fn drained(&self) -> bool {
        self.max_expansions.is_some_and(|cap| self.spent() >= cap)
    }

    /// True when either limit is hit. Poll this inside loops.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.expired() || self.drained()
    }

    /// Wall-clock time left, or `None` for an unbounded budget.
    /// Saturates at zero once expired.
    #[must_use]
    pub fn remaining_time(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }
}

/// Run `f` with panic containment: a panic becomes
/// [`MapError::Internal`] carrying the panic message and `label`,
/// instead of unwinding into the caller.
///
/// The closure is treated as unwind-safe: every caller in this crate
/// either owns its state (`MapEnv` clones) or discards the touched
/// state on error (the compiler drops the attempt, the trainer rolls
/// back to a snapshot), so observing a broken invariant afterwards is
/// impossible by construction.
pub fn isolated<T>(label: &str, f: impl FnOnce() -> T) -> Result<T, MapError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => Err(MapError::Internal(format!(
            "{label} panicked: {}",
            // `&*`: downcast the payload, not the box wrapping it.
            panic_message(&*payload)
        ))),
    }
}

/// Best-effort extraction of a panic payload message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let b = Budget::unlimited();
        b.charge(1_000_000);
        assert!(!b.exhausted());
        assert_eq!(b.remaining_time(), None);
    }

    #[test]
    fn deadline_budget_expires() {
        let b = Budget::with_deadline(Duration::ZERO);
        assert!(b.expired());
        assert!(b.exhausted());
        assert_eq!(b.remaining_time(), Some(Duration::ZERO));
    }

    #[test]
    fn expansion_cap_drains() {
        let b = Budget::unlimited().with_expansion_cap(10);
        assert!(!b.exhausted());
        b.charge(10);
        assert!(b.drained());
        assert!(b.exhausted());
    }

    #[test]
    fn a_second_cap_keeps_the_smaller() {
        let tight = Budget::unlimited().with_expansion_cap(4).with_expansion_cap(10);
        let loose = Budget::unlimited().with_expansion_cap(10).with_expansion_cap(4);
        for b in [tight, loose] {
            b.charge(4);
            assert!(b.drained());
        }
    }

    #[test]
    fn slices_share_the_expansion_pool() {
        let parent = Budget::with_deadline(Duration::from_secs(60)).with_expansion_cap(10);
        let a = parent.slice(Duration::from_secs(1));
        let b = parent.slice(Duration::from_secs(1));
        a.charge(6);
        b.charge(6);
        assert!(parent.drained());
        assert!(a.drained() && b.drained());
    }

    #[test]
    fn slice_never_outlives_parent() {
        let parent = Budget::with_deadline(Duration::ZERO);
        let slice = parent.slice(Duration::from_secs(60));
        assert!(slice.expired());
    }

    #[test]
    fn isolated_passes_values_and_contains_panics() {
        assert_eq!(isolated("ok", || 7).unwrap(), 7);
        let err = isolated("boom", || -> i32 { panic!("kaputt") }).unwrap_err();
        let MapError::Internal(msg) = err else {
            panic!("expected Internal, got {err:?}");
        };
        assert!(msg.contains("boom") && msg.contains("kaputt"), "{msg}");
    }

    #[test]
    fn slice_after_parent_deadline_is_already_expired() {
        let parent = Budget::with_deadline(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        // The parent deadline is in the past; the slice must clamp to
        // it (expired immediately) without any negative-duration panic.
        let slice = parent.slice(Duration::from_secs(60));
        assert!(slice.expired());
        assert_eq!(slice.remaining_time(), Some(Duration::ZERO));
    }

    #[test]
    fn from_deadline_at_charges_elapsed_wait() {
        // A deadline fixed in the past is already expired: the "queue
        // wait" consumed the whole allowance before work began.
        let enqueue = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let b = Budget::from_deadline_at(enqueue);
        assert!(b.expired());
        assert_eq!(b.remaining_time(), Some(Duration::ZERO));

        // A future absolute deadline behaves like with_deadline.
        let b = Budget::from_deadline_at(Instant::now() + Duration::from_secs(60));
        assert!(!b.expired());
        assert!(b.remaining_time().is_some_and(|t| t <= Duration::from_secs(60)));
        assert!(b.deadline().is_some());
    }

    #[test]
    fn from_deadline_at_overflow_contract_matches_checked_add() {
        // The documented composition: an enqueue instant plus a timeout
        // too large for the clock must degrade to unbounded, exactly as
        // with_deadline(Duration::MAX) does.
        let enqueue = Instant::now();
        let b = enqueue
            .checked_add(Duration::MAX)
            .map_or_else(Budget::unlimited, Budget::from_deadline_at);
        assert!(!b.expired());
        assert_eq!(b.remaining_time(), None);
        assert_eq!(b.deadline(), None);

        // A representable timeout takes the bounded branch.
        let b = enqueue
            .checked_add(Duration::from_secs(1))
            .map_or_else(Budget::unlimited, Budget::from_deadline_at);
        assert!(b.deadline().is_some());
    }

    #[test]
    fn slice_of_absolute_deadline_budget_clamps_to_it() {
        let enqueue = Instant::now();
        let parent = Budget::from_deadline_at(enqueue + Duration::from_millis(10));
        let slice = parent.slice(Duration::from_secs(60));
        assert!(slice.remaining_time().is_some_and(|t| t <= Duration::from_millis(10)));
        // Expansions still drain the shared pool through the slice.
        let parent = Budget::from_deadline_at(enqueue + Duration::from_secs(60))
            .with_expansion_cap(4);
        let slice = parent.slice(Duration::from_secs(1));
        slice.charge(4);
        assert!(parent.drained());
    }

    #[test]
    fn huge_durations_do_not_overflow_instant_arithmetic() {
        let unbounded = Budget::with_deadline(Duration::MAX);
        assert!(!unbounded.expired());
        assert_eq!(unbounded.remaining_time(), None);

        let parent = Budget::with_deadline(Duration::from_secs(60));
        let slice = parent.slice(Duration::MAX);
        assert!(!slice.expired());
        // The oversized slice falls back to the parent deadline.
        assert!(slice.remaining_time().is_some_and(|t| t <= Duration::from_secs(60)));

        let free = Budget::unlimited().slice(Duration::MAX);
        assert!(!free.expired());
    }
}
