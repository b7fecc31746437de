//! Deterministic fault injection: named failpoints.
//!
//! A *failpoint* is a named site in production code where a test (or an
//! operator, via the `MAPZERO_FAILPOINTS` environment variable) can arm
//! a deterministic fault: panic, injected I/O error, or delay, fired on
//! the N-th visit. Disarmed sites cost one thread-local map lookup (and
//! nothing allocates), so the hooks stay in release builds — the same
//! binary that serves traffic is the one chaos tests exercise.
//!
//! This generalizes the old ad-hoc `arm_route_fault`/`disarm_route_fault`
//! pair in `supervise.rs` to every subsystem. Instrumented sites (see
//! DESIGN.md §8 for the naming convention `subsystem.moment`):
//!
//! | site | location | useful actions |
//! |---|---|---|
//! | `route.pre` | [`crate::router::route_edge`] | panic |
//! | `infer.predict` | [`crate::network::MapZeroNet::predict`] | panic, delay |
//! | `compile.attempt` | [`crate::compiler::Compiler`] attempt loop | panic |
//! | `train.pre_epoch` | [`crate::train::Trainer`] epoch loop | panic |
//! | `train.episode` | [`crate::train::Trainer`] self-play episode body | panic |
//! | `train.nan_loss` | [`crate::train::Trainer`] epoch loss | io (poisons the loss with NaN) |
//! | `checkpoint.pre_write` | before each checkpoint payload write | io |
//! | `checkpoint.pre_rename` | between temp write and atomic rename | io, panic |
//! | `checkpoint.pre_manifest` | before the MANIFEST commit point | io, panic |
//! | `serve.enqueue` | `mapzero-serve` request admission | panic, delay |
//! | `serve.worker.pre_map` | `mapzero-serve` worker, before mapping | panic, delay |
//! | `serve.worker.attempt` | `mapzero-serve` worker, before each mapping attempt | panic |
//! | `serve.respond` | `mapzero-serve` response delivery | panic, io |
//! | `serve.journal.append` | `mapzero-serve` journal, before an admit record | io |
//! | `serve.journal.post_admit` | `mapzero-serve` journal, after an admit fsync | abort |
//! | `validate.corrupt` | `mapzero-serve` worker, before response validation | io (fires the corruptor) |
//!
//! Arming is **per-thread** (tests run concurrently in one binary; a
//! fault armed by one test must not leak into another), except for
//! `MAPZERO_FAILPOINTS`, which seeds every new thread's registry. Unit
//! sites use the [`crate::failpoint!`] macro; fallible I/O sites call
//! [`trigger`] directly and `?`-propagate the injected `io::Error`.
//!
//! A spec term whose name carries the `global:` prefix instead arms a
//! **process-wide** failpoint that fires exactly once across all
//! threads (on the `after`-th visit to the site from anywhere). That is
//! the chaos knob for thread pools: `global:serve.worker.pre_map=panic`
//! kills exactly one worker; the per-thread form would re-arm in every
//! respawned worker and cascade. Programmatic equivalents:
//! [`arm_global`] / [`disarm_global`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Panic with a recognizable message naming the site
    /// (``failpoint `NAME` injected panic``).
    Panic,
    /// Return an injected [`io::Error`] (checkpoint/file sites; at a
    /// non-I/O site the [`crate::failpoint!`] macro escalates it to a
    /// panic).
    IoError,
    /// Sleep for the given duration, then continue normally (latency
    /// injection for deadline tests).
    Delay(Duration),
    /// Abort the whole process immediately (`std::process::abort`) —
    /// the kill -9 primitive for crash-recovery chaos tests: no
    /// destructors, no unwinding, no flushes.
    Abort,
}

#[derive(Debug, Clone, Copy)]
struct Armed {
    action: FailAction,
    /// Fires on the `after`-th visit (1 = the next one).
    after: u64,
    hits: u64,
}

thread_local! {
    /// Per-thread armed sites, seeded from `MAPZERO_FAILPOINTS`.
    static ARMED: RefCell<HashMap<String, Armed>> = RefCell::new(env_armed());
}

/// Parse result of `MAPZERO_FAILPOINTS`, computed once per process.
fn env_spec() -> &'static [(String, FailAction, u64)] {
    static SPEC: OnceLock<Vec<(String, FailAction, u64)>> = OnceLock::new();
    SPEC.get_or_init(|| match std::env::var("MAPZERO_FAILPOINTS") {
        Ok(raw) => match parse_spec(&raw) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("MAPZERO_FAILPOINTS: {e}; ignoring");
                Vec::new()
            }
        },
        Err(_) => Vec::new(),
    })
}

fn env_armed() -> HashMap<String, Armed> {
    // Touching any thread's registry also materializes the global one,
    // so env-seeded `global:` terms are live before the first visit.
    let _ = global_registry();
    env_spec()
        .iter()
        .filter(|(name, _, _)| !name.starts_with(GLOBAL_PREFIX))
        .map(|(name, action, after)| {
            (name.clone(), Armed { action: *action, after: *after, hits: 0 })
        })
        .collect()
}

/// Spec-name prefix selecting the process-wide registry.
const GLOBAL_PREFIX: &str = "global:";

/// Fast-path flag: `true` while at least one global failpoint is armed,
/// so disarmed processes never take the registry mutex on a visit.
static GLOBAL_ACTIVE: AtomicBool = AtomicBool::new(false);

/// Process-wide armed sites, seeded from `global:`-prefixed
/// `MAPZERO_FAILPOINTS` terms.
fn global_registry() -> &'static Mutex<HashMap<String, Armed>> {
    static REG: OnceLock<Mutex<HashMap<String, Armed>>> = OnceLock::new();
    REG.get_or_init(|| {
        let map: HashMap<String, Armed> = env_spec()
            .iter()
            .filter_map(|(name, action, after)| {
                let site = name.strip_prefix(GLOBAL_PREFIX)?;
                Some((site.to_owned(), Armed { action: *action, after: *after, hits: 0 }))
            })
            .collect();
        if !map.is_empty() {
            GLOBAL_ACTIVE.store(true, Ordering::Release);
        }
        Mutex::new(map)
    })
}

/// Arm `name` process-wide: the `after`-th visit *from any thread*
/// fires `action`, then the site disarms itself (exactly one firing
/// total — the thread-pool chaos primitive).
pub fn arm_global(name: &str, after: u64, action: FailAction) {
    assert!(after >= 1, "failpoint fires on the after-th visit; after must be >= 1");
    let mut reg = global_registry().lock().unwrap_or_else(PoisonError::into_inner);
    reg.insert(name.to_owned(), Armed { action, after, hits: 0 });
    GLOBAL_ACTIVE.store(true, Ordering::Release);
}

/// Disarm the process-wide `name` (no-op when not armed).
pub fn disarm_global(name: &str) {
    let mut reg = global_registry().lock().unwrap_or_else(PoisonError::into_inner);
    reg.remove(name);
    if reg.is_empty() {
        GLOBAL_ACTIVE.store(false, Ordering::Release);
    }
}

/// Check the process-wide registry for a due firing at `name`.
fn fire_global(name: &str) -> Option<FailAction> {
    let mut reg = global_registry().lock().unwrap_or_else(PoisonError::into_inner);
    let entry = reg.get_mut(name)?;
    entry.hits += 1;
    if entry.hits < entry.after {
        return None;
    }
    let action = entry.action;
    reg.remove(name);
    if reg.is_empty() {
        GLOBAL_ACTIVE.store(false, Ordering::Release);
    }
    Some(action)
}

/// Parse a failpoint spec: comma-separated `name=action[@after]` terms
/// with `action` one of `panic`, `io`, `abort`, `delay:<ms>`; `after`
/// defaults to 1 (fire on the next visit).
///
/// # Errors
/// Returns a description of the first malformed term.
pub fn parse_spec(raw: &str) -> Result<Vec<(String, FailAction, u64)>, String> {
    let mut out = Vec::new();
    for term in raw.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        let (name, rest) =
            term.split_once('=').ok_or_else(|| format!("`{term}`: missing `=action`"))?;
        let (action_raw, after_raw) = match rest.split_once('@') {
            Some((a, n)) => (a, Some(n)),
            None => (rest, None),
        };
        let action = match action_raw.split_once(':') {
            None if action_raw == "panic" => FailAction::Panic,
            None if action_raw == "io" => FailAction::IoError,
            None if action_raw == "abort" => FailAction::Abort,
            Some(("delay", ms)) => {
                let ms: u64 =
                    ms.parse().map_err(|_| format!("`{term}`: bad delay millis `{ms}`"))?;
                FailAction::Delay(Duration::from_millis(ms))
            }
            _ => return Err(format!("`{term}`: unknown action `{action_raw}`")),
        };
        let after = match after_raw {
            Some(n) => n.parse().map_err(|_| format!("`{term}`: bad count `{n}`"))?,
            None => 1,
        };
        if after == 0 {
            return Err(format!("`{term}`: count must be >= 1"));
        }
        out.push((name.trim().to_owned(), action, after));
    }
    Ok(out)
}

/// Arm `name` on this thread: the `after`-th subsequent visit fires
/// `action`, then the site disarms itself.
pub fn arm(name: &str, after: u64, action: FailAction) {
    assert!(after >= 1, "failpoint fires on the after-th visit; after must be >= 1");
    ARMED.with(|m| {
        m.borrow_mut().insert(name.to_owned(), Armed { action, after, hits: 0 });
    });
}

/// Disarm `name` on this thread (no-op when not armed).
pub fn disarm(name: &str) {
    ARMED.with(|m| {
        m.borrow_mut().remove(name);
    });
}

/// Names currently armed on this thread, sorted.
#[must_use]
pub fn armed_sites() -> Vec<String> {
    let mut names = ARMED.with(|m| m.borrow().keys().cloned().collect::<Vec<_>>());
    names.sort();
    names
}

/// A scope guard that disarms its failpoint on drop, keeping tests
/// hygienic even when an assertion (or the injected panic itself)
/// unwinds through the test body.
#[derive(Debug)]
pub struct FailScope {
    name: String,
}

impl Drop for FailScope {
    fn drop(&mut self) {
        disarm(&self.name);
    }
}

/// Arm `name` for the lifetime of the returned guard.
#[must_use]
pub fn scoped(name: &str, after: u64, action: FailAction) -> FailScope {
    arm(name, after, action);
    FailScope { name: name.to_owned() }
}

/// Visit the failpoint `name`: counts armed sites down and fires their
/// action when the countdown elapses. Disarmed sites return `Ok(())`
/// after a single thread-local lookup.
///
/// # Errors
/// Returns the injected error when an armed [`FailAction::IoError`]
/// fires.
///
/// # Panics
/// Panics (by design) when an armed [`FailAction::Panic`] fires.
pub fn trigger(name: &str) -> io::Result<()> {
    let mut fired = ARMED.with(|m| {
        let mut m = m.borrow_mut();
        if m.is_empty() {
            return None;
        }
        let entry = m.get_mut(name)?;
        entry.hits += 1;
        if entry.hits >= entry.after {
            let action = entry.action;
            m.remove(name);
            Some(action)
        } else {
            None
        }
    });
    if fired.is_none() && GLOBAL_ACTIVE.load(Ordering::Acquire) {
        fired = fire_global(name);
    }
    match fired {
        None => Ok(()),
        Some(FailAction::Delay(d)) => {
            mapzero_obs::counter!("failpoint.fired");
            std::thread::sleep(d);
            Ok(())
        }
        Some(FailAction::IoError) => {
            mapzero_obs::counter!("failpoint.fired");
            Err(io::Error::other(format!("failpoint `{name}` injected i/o error")))
        }
        Some(FailAction::Panic) => {
            mapzero_obs::counter!("failpoint.fired");
            panic!("failpoint `{name}` injected panic");
        }
        Some(FailAction::Abort) => {
            mapzero_obs::counter!("failpoint.fired");
            eprintln!("failpoint `{name}` aborting the process");
            std::process::abort();
        }
    }
}

/// Visit a unit (non-I/O) failpoint site: fires [`FailAction::Panic`]
/// and [`FailAction::Delay`] as usual; an armed [`FailAction::IoError`]
/// cannot be returned from a unit site and escalates to a panic.
#[macro_export]
macro_rules! failpoint {
    ($name:expr) => {
        if let Err(e) = $crate::failpoint::trigger($name) {
            panic!("failpoint at non-i/o site: {e}");
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_site_is_a_noop() {
        assert!(trigger("no.such.site").is_ok());
    }

    #[test]
    fn panic_fires_on_the_nth_visit_then_disarms() {
        arm("t.panic", 3, FailAction::Panic);
        assert!(trigger("t.panic").is_ok());
        assert!(trigger("t.panic").is_ok());
        let caught = std::panic::catch_unwind(|| trigger("t.panic"));
        assert!(caught.is_err(), "third visit must fire");
        // Self-disarmed after firing.
        assert!(trigger("t.panic").is_ok());
        assert!(armed_sites().is_empty());
    }

    #[test]
    fn io_error_action_returns_structured_error() {
        arm("t.io", 1, FailAction::IoError);
        let err = trigger("t.io").unwrap_err();
        assert!(err.to_string().contains("t.io"), "{err}");
        assert!(trigger("t.io").is_ok());
    }

    #[test]
    fn delay_action_sleeps_then_continues() {
        arm("t.delay", 1, FailAction::Delay(Duration::from_millis(20)));
        let start = std::time::Instant::now();
        assert!(trigger("t.delay").is_ok());
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn disarm_clears_pending_fault() {
        arm("t.clear", 1, FailAction::Panic);
        disarm("t.clear");
        assert!(trigger("t.clear").is_ok());
    }

    #[test]
    fn scope_guard_disarms_on_drop() {
        {
            let _guard = scoped("t.scope", 10, FailAction::Panic);
            assert_eq!(armed_sites(), vec!["t.scope".to_owned()]);
        }
        assert!(armed_sites().is_empty());
    }

    #[test]
    fn arming_is_thread_local() {
        arm("t.local", 1, FailAction::Panic);
        let other = std::thread::spawn(|| trigger("t.local").is_ok()).join().unwrap();
        assert!(other, "another thread must not see this thread's fault");
        disarm("t.local");
    }

    #[test]
    fn unit_macro_passes_when_disarmed() {
        crate::failpoint!("t.macro");
    }

    #[test]
    fn global_failpoint_fires_exactly_once_across_threads() {
        arm_global("t.global.once", 1, FailAction::IoError);
        // Eight threads race the same site; exactly one observes the
        // injected error, and the site self-disarms process-wide.
        let fired: usize = std::thread::scope(|s| {
            (0..8)
                .map(|_| s.spawn(|| usize::from(trigger("t.global.once").is_err())))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(fired, 1, "a global failpoint must fire exactly once process-wide");
        assert!(trigger("t.global.once").is_ok());
    }

    #[test]
    fn global_failpoint_counts_visits_across_threads() {
        arm_global("t.global.nth", 3, FailAction::IoError);
        assert!(trigger("t.global.nth").is_ok());
        let ok = std::thread::spawn(|| trigger("t.global.nth").is_ok()).join().unwrap();
        assert!(ok, "second visit (other thread) must not fire yet");
        assert!(trigger("t.global.nth").is_err(), "third visit fires");
    }

    #[test]
    fn disarm_global_clears_pending_fault() {
        arm_global("t.global.clear", 1, FailAction::Panic);
        disarm_global("t.global.clear");
        assert!(trigger("t.global.clear").is_ok());
    }

    #[test]
    fn thread_local_arming_shadows_global() {
        // A thread-local arm at the same site fires first; the global
        // stays pending for other threads.
        arm_global("t.global.shadow", 1, FailAction::IoError);
        arm("t.global.shadow", 1, FailAction::IoError);
        assert!(trigger("t.global.shadow").is_err(), "local fires");
        assert!(trigger("t.global.shadow").is_err(), "then the global");
        assert!(trigger("t.global.shadow").is_ok());
    }

    #[test]
    fn spec_parses_all_action_forms() {
        let spec = parse_spec("a=panic, b=io@4 ,c=delay:250@2,d=abort@3").unwrap();
        assert_eq!(
            spec,
            vec![
                ("a".to_owned(), FailAction::Panic, 1),
                ("b".to_owned(), FailAction::IoError, 4),
                ("c".to_owned(), FailAction::Delay(Duration::from_millis(250)), 2),
                ("d".to_owned(), FailAction::Abort, 3),
            ]
        );
        assert!(parse_spec("").unwrap().is_empty());
    }

    #[test]
    fn spec_rejects_malformed_terms() {
        assert!(parse_spec("no-equals").is_err());
        assert!(parse_spec("a=explode").is_err());
        assert!(parse_spec("a=delay:xx").is_err());
        assert!(parse_spec("a=panic@0").is_err());
        assert!(parse_spec("a=panic@x").is_err());
    }
}
