//! Leases: the one file-claim primitive behind every exactly-once
//! guarantee (DESIGN.md §11).
//!
//! A lease is a file at a well-known path, stamped with the holder's
//! process identity and a deadline: `"<pid> <starttime> <deadline_ms>"`.
//! Whoever publishes the file owns the path; a live holder within its
//! deadline keeps it, and everything else — no file, dead holder,
//! expired deadline, unparsable stamp — is claimable. Two users share
//! it:
//!
//! * **Cell leases** (`<cache-root>/leases/<cell-fp>.lease`, TTL
//!   `LLBP_LEASE_TTL_MS`): the daemon's worker threads claim a cell
//!   before probing, simulating and publishing it. The path is keyed by
//!   the cell *fingerprint*, so two campaigns that share a cell contend
//!   on one lease and the cell is computed once.
//! * **Journal leases** (`<campaign>.journal.lock`, TTL
//!   [`Duration::MAX`]): a campaign journal is held by exactly one
//!   campaign. The deadline saturates, so only a dead or torn holder
//!   loses it; a live one makes a second campaign wait
//!   `LLBP_LOCK_WAIT_MS` and then fail with
//!   [`SimError::CacheContention`].
//!
//! # Takeover
//!
//! The stamp carries the holder's process *start time* (field 22 of
//! `/proc/<pid>/stat`) alongside its PID via [`ProcessStamp`], so a
//! recycled PID belonging to an unrelated process does not keep a
//! crashed holder's lease hostage. The deadline is the second trigger:
//! a holder that is alive but wedged loses its claim once the deadline
//! passes. Where `/proc` is unavailable holders are assumed alive, so
//! takeover can leave a stale lease for a human to delete but never
//! steals from a live holder on a dead-PID guess.
//!
//! Claims are atomic *with their content*: the stamp is written to a
//! private temp file and hard-linked into place, so no observer ever
//! reads a half-written stamp (an empty lease would be judged torn and
//! a live claim stolen). Theft is remove-then-relink: two concurrent
//! stealers both unlink (one wins, one no-ops), then race the link —
//! exactly one claims and the other sees a fresh live lease. A holder
//! confirms the file still carries its exact stamp line before
//! publishing ([`Lease::check`]), so the loser of any residual race —
//! including a sibling thread of the same process that stole an expired
//! lease — discards its work instead of double-publishing. A journal
//! lease has no such check; what it cannot exclude is two claimants that
//! both judged the same dead holder stale, where one's unlink races the
//! other's fresh link — a window a few instructions wide, accepted to
//! stay std-only.
//!
//! # Fault injection
//!
//! `LLBP_FAULT_SPEC=lease:expire` simulates losing a lease mid-cell:
//! [`Lease::check`] consults the injector, and an armed rule unlinks the
//! holder's own lease and reports it lost — the same observable outcome
//! as a genuine steal.

use crate::error::SimError;
use crate::faultinject::FaultInjector;
use llbp_obs::Telemetry;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Environment variable setting the cell-lease TTL in milliseconds.
pub const LEASE_TTL_ENV: &str = "LLBP_LEASE_TTL_MS";

/// Cell-lease TTL when [`LEASE_TTL_ENV`] is unset: long enough that a
/// healthy worker never loses a quick cell to clock skew, short enough
/// that a wedged worker's cells are re-run within one campaign.
pub const DEFAULT_LEASE_TTL: Duration = Duration::from_secs(30);

/// Poll interval while waiting for a held lease.
const RETRY_INTERVAL: Duration = Duration::from_millis(10);

/// The cell-lease TTL from [`LEASE_TTL_ENV`], else [`DEFAULT_LEASE_TTL`]
/// (values are clamped to >= 1 ms so a zero TTL cannot make every claim
/// instantly stealable).
///
/// # Errors
///
/// [`SimError::Config`] when the variable is set but unparsable.
pub fn lease_ttl_from_env() -> Result<Duration, SimError> {
    Ok(crate::envknob::parse_env::<u64>(LEASE_TTL_ENV)?
        .map_or(DEFAULT_LEASE_TTL, |ms| Duration::from_millis(ms.max(1))))
}

/// Whether `pid` refers to a live process, as far as this platform lets
/// us tell. Errs toward "alive": a false positive merely reports
/// contention, a false negative would steal a live holder's lease.
#[must_use]
pub fn pid_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    let proc_root = Path::new("/proc");
    if proc_root.is_dir() {
        proc_root.join(pid.to_string()).exists()
    } else {
        true
    }
}

/// The kernel start time (`starttime`, field 22 of `/proc/<pid>/stat`,
/// in clock ticks since boot) of the given process, or `None` where the
/// process is gone or `/proc` is unavailable.
///
/// PID + start time together name a process *incarnation*: a recycled
/// PID gets a fresh start time, so a stamp carrying both can never be
/// confused with the unrelated process that inherited its PID.
#[must_use]
pub fn process_start_time(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) is parenthesized and may itself contain
    // spaces or parentheses; everything after the *last* `)` is
    // whitespace-separated, starting with field 3 (state). starttime is
    // field 22, i.e. index 19 of those tokens.
    let after_comm = &stat[stat.rfind(')')? + 1..];
    after_comm.split_ascii_whitespace().nth(19)?.parse().ok()
}

/// A `pid [start-time]` holder identity, the first part of every lease
/// stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessStamp {
    /// The stamping process's PID.
    pub pid: u32,
    /// Its kernel start time; `None` for legacy PID-only stamps or
    /// platforms without `/proc`.
    pub start_time: Option<u64>,
}

impl ProcessStamp {
    /// The calling process's own stamp.
    #[must_use]
    pub fn current() -> Self {
        let pid = std::process::id();
        Self { pid, start_time: process_start_time(pid) }
    }

    /// Parses `"pid"` (legacy) or `"pid start-time"` stamp text.
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        let mut tokens = text.split_ascii_whitespace();
        let pid = tokens.next()?.parse().ok()?;
        let start_time = match tokens.next() {
            Some(token) => Some(token.parse().ok()?),
            None => None,
        };
        Some(Self { pid, start_time })
    }

    /// The stamp's wire form (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        match self.start_time {
            Some(start) => format!("{} {start}", self.pid),
            None => self.pid.to_string(),
        }
    }

    /// Whether the stamped process incarnation is still alive. Dead PID
    /// → dead. Live PID whose current start time differs from the
    /// stamped one → the PID was recycled, the holder itself is dead.
    /// Missing start-time information on either side falls back to the
    /// conservative PID-liveness answer.
    #[must_use]
    pub fn alive(&self) -> bool {
        if !pid_alive(self.pid) {
            return false;
        }
        match (self.start_time, process_start_time(self.pid)) {
            (Some(stamped), Some(current)) => stamped == current,
            _ => true,
        }
    }
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

fn io_err(detail: std::io::Error) -> SimError {
    SimError::MemoIo { op: "lease", detail: detail.to_string() }
}

/// Parses `"<pid> [<starttime>] <deadline_ms>"`.
fn parse_lease(text: &str) -> Option<(ProcessStamp, u64)> {
    let (identity, deadline) = text.trim().rsplit_once(char::is_whitespace)?;
    Some((ProcessStamp::parse(identity)?, deadline.trim().parse().ok()?))
}

/// The live holder of a lease file's contents, or `None` when the claim
/// is stale: dead holder (PID *and* start time — see
/// [`ProcessStamp::alive`]), passed deadline, or unparsable text (a torn
/// write must not wedge the path forever).
fn live_holder(text: &str) -> Option<ProcessStamp> {
    let (stamp, deadline) = parse_lease(text)?;
    (stamp.alive() && deadline > now_unix_ms()).then_some(stamp)
}

/// A held claim on one path. Dropping it releases the claim — the file
/// is removed only if it still carries this lease's exact stamp line, so
/// a stolen lease is never deleted out from under its new holder.
#[derive(Debug)]
pub struct Lease {
    path: PathBuf,
    /// The exact stamp line this lease published (identity + deadline).
    line: String,
    /// Stale claims stolen on the way to this one.
    takeovers: u64,
    /// How long the claim waited on a live holder.
    waited: Duration,
}

impl Lease {
    /// Tries once to claim `path`. `Ok(None)` means a live holder within
    /// its deadline owns it. Stale claims are stolen and counted in
    /// [`Lease::takeovers`].
    ///
    /// # Errors
    ///
    /// [`SimError::MemoIo`] on filesystem failures.
    pub fn try_claim(path: &Path, ttl: Duration) -> Result<Option<Self>, SimError> {
        Ok(match claim_once(path, ttl)? {
            Claim::Won(lease) => Some(lease),
            Claim::Held { .. } => None,
        })
    }

    /// Claims `path`, waiting up to `wait` for a live holder to release
    /// it. Records a `lock_wait` span whenever the claim did not succeed
    /// on the first try (including the failing path) and a
    /// `lock_takeover` mark per stale claim stolen.
    ///
    /// # Errors
    ///
    /// [`SimError::CacheContention`] naming the holder PID when a live
    /// holder outlasts `wait`; [`SimError::MemoIo`] on filesystem
    /// failures.
    pub fn acquire(
        path: &Path,
        ttl: Duration,
        wait: Duration,
        telemetry: &Telemetry,
    ) -> Result<Self, SimError> {
        let started = Instant::now();
        let mut takeovers = 0u64;
        let mut contended = false;
        let observe = |contended: bool, takeovers: u64| {
            if contended || takeovers > 0 {
                telemetry.record_span("lock_wait", started, Instant::now(), -1);
            }
            for _ in 0..takeovers {
                telemetry.mark("lock_takeover", -1);
            }
        };
        loop {
            match claim_once(path, ttl)? {
                Claim::Won(mut lease) => {
                    lease.takeovers += takeovers;
                    observe(contended, lease.takeovers);
                    lease.waited = if contended { started.elapsed() } else { Duration::ZERO };
                    return Ok(lease);
                }
                Claim::Held { holder, takeovers: stolen } => {
                    takeovers += stolen;
                    if started.elapsed() >= wait {
                        observe(true, takeovers);
                        return Err(SimError::CacheContention {
                            path: path.display().to_string(),
                            holder: holder.map(|stamp| stamp.pid),
                        });
                    }
                    contended = true;
                    std::thread::sleep(RETRY_INTERVAL);
                }
            }
        }
    }

    /// Stale claims (dead holder, passed deadline, torn stamp) stolen
    /// while claiming.
    #[must_use]
    pub fn takeovers(&self) -> u64 {
        self.takeovers
    }

    /// How long the claim blocked on a live holder (zero if it did not).
    #[must_use]
    pub fn wait_duration(&self) -> Duration {
        self.waited
    }

    /// Whether this lease still owns its path, consulting the fault
    /// injector first: an armed `lease:expire` rule unlinks our own
    /// lease and reports it lost — the same observable outcome as a
    /// genuine steal. Call before publishing a result, so a cell whose
    /// lease was lost mid-run is discarded (its new holder re-runs it)
    /// instead of racing the new holder's write.
    ///
    /// # Errors
    ///
    /// [`SimError::MemoIo`] on filesystem failures other than a missing
    /// file (which is a lost lease, `Ok(false)`).
    pub fn check(&self, faults: Option<&FaultInjector>) -> Result<bool, SimError> {
        if faults.is_some_and(FaultInjector::check_lease_expire) {
            remove_ignoring_missing(&self.path).map_err(io_err)?;
            return Ok(false);
        }
        match std::fs::read_to_string(&self.path) {
            Ok(text) => Ok(text == self.line),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(false),
            Err(e) => Err(io_err(e)),
        }
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        // Release only our own claim: after a steal the file belongs to
        // the new holder and must survive this drop.
        if self.check(None).unwrap_or(false) {
            let _ = remove_ignoring_missing(&self.path);
        }
    }
}

/// The outcome of one claim attempt.
enum Claim {
    Won(Lease),
    /// A live holder owns the path; `takeovers` stale claims were stolen
    /// before losing the race to it.
    Held {
        holder: Option<ProcessStamp>,
        takeovers: u64,
    },
}

/// One claim attempt: publishes a fresh stamp by linking a private temp
/// file to `path`, stealing stale claims on the way.
fn claim_once(path: &Path, ttl: Duration) -> Result<Claim, SimError> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let deadline = now_unix_ms().saturating_add(u64::try_from(ttl.as_millis()).unwrap_or(u64::MAX));
    let line = format!("{} {deadline}\n", ProcessStamp::current().to_line());
    let name = path.file_name().map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    let tmp = path.with_file_name(format!(
        ".{name}.{}-{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    write_synced(&tmp, &line).map_err(io_err)?;
    let claim = link_claim(&tmp, path, line);
    let _ = remove_ignoring_missing(&tmp);
    claim
}

/// Links the stamped `tmp` file to `path`, stealing stale claims. The
/// `Lease` exists only once the claim is won: a losing claimant must
/// never hold one, or its release-on-drop would delete the winner's
/// lease.
fn link_claim(tmp: &Path, path: &Path, line: String) -> Result<Claim, SimError> {
    let mut takeovers = 0u64;
    // Bounded: each iteration either claims, backs off, or removes a
    // stale file; a stealing race loses at most one iteration.
    for _ in 0..4 {
        match std::fs::hard_link(tmp, path) {
            Ok(()) => {
                let path = path.to_path_buf();
                return Ok(Claim::Won(Lease { path, line, takeovers, waited: Duration::ZERO }));
            }
            Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                match std::fs::read_to_string(path) {
                    Ok(text) => match live_holder(&text) {
                        Some(live) => return Ok(Claim::Held { holder: Some(live), takeovers }),
                        // Stale (dead, expired, or torn): steal. A racing
                        // stealer may have unlinked first — that is fine.
                        None => {
                            takeovers += 1;
                            remove_ignoring_missing(path).map_err(io_err)?;
                        }
                    },
                    // Unlinked between link and read: retry the link.
                    Err(e) if e.kind() == ErrorKind::NotFound => {}
                    Err(e) => return Err(io_err(e)),
                }
            }
            Err(e) => return Err(io_err(e)),
        }
    }
    // Lost every race in the loop: someone live holds it now.
    Ok(Claim::Held { holder: None, takeovers })
}

/// Writes `text` to a fresh file at `path`, synced before return, so
/// linking it into place publishes complete content.
fn write_synced(path: &Path, text: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut file = std::fs::File::create(path)?;
    file.write_all(text.as_bytes())?;
    file.sync_all()
}

fn remove_ignoring_missing(path: &Path) -> std::io::Result<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn scratch_root(tag: &str) -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "llbp-lease-unit-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("scratch root");
        dir
    }

    const TTL: Duration = Duration::from_secs(30);

    fn claim(path: &Path) -> Option<Lease> {
        Lease::try_claim(path, TTL).expect("io")
    }

    /// Our own PID with a perturbed start time: the PID-reuse shape,
    /// where the PID is alive but names a different incarnation.
    fn recycled_stamp(bump: u64) -> ProcessStamp {
        ProcessStamp {
            pid: std::process::id(),
            start_time: Some(ProcessStamp::current().start_time.unwrap_or(7) + bump),
        }
    }

    #[test]
    fn claim_is_exclusive_until_released() {
        let root = scratch_root("exclusive");
        let (a, b) = (root.join("a.lease"), root.join("b.lease"));
        let held = claim(&a).expect("first claim wins");
        assert!(claim(&a).is_none(), "live lease must not be stolen");
        assert!(claim(&b).is_some(), "other paths are free");
        drop(held);
        assert!(!a.exists(), "drop releases the lease");
        assert!(claim(&a).is_some(), "released path is claimable");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn dead_holder_leases_are_stolen_but_recycled_pids_are_not_trusted() {
        let root = scratch_root("dead");
        let path = root.join("cell.lease");
        let deadline = now_unix_ms() + 60_000;
        std::fs::write(&path, format!("{} {deadline}\n", recycled_stamp(1).to_line()))
            .expect("plant stale lease");
        let stolen = claim(&path).expect("dead holder must be stolen");
        assert_eq!(stolen.takeovers(), 1);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn expired_deadlines_are_stolen_even_from_live_holders() {
        let root = scratch_root("expired");
        let path = root.join("cell.lease");
        // Genuinely our own live process — but the deadline has passed,
        // which is the wedged-worker takeover trigger.
        let stale_deadline = now_unix_ms().saturating_sub(1);
        std::fs::write(&path, format!("{} {stale_deadline}\n", ProcessStamp::current().to_line()))
            .expect("plant expired lease");
        let stolen = claim(&path).expect("expired lease must be stolen");
        assert_eq!(stolen.takeovers(), 1);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn torn_stamps_do_not_wedge_the_cell() {
        let root = scratch_root("torn");
        let path = root.join("cell.lease");
        for torn in ["gar bage not a lease", "", "12345\n", "not-a-pid\n"] {
            std::fs::write(&path, torn).expect("plant torn lease");
            let stolen = claim(&path).unwrap_or_else(|| panic!("torn {torn:?} must be claimable"));
            assert_eq!(stolen.takeovers(), 1);
        }
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn stolen_leases_fail_ownership_checks() {
        // A cell outliving its TTL: a sibling in this very process (same
        // PID and start time) steals the expired lease. Only the
        // deadline tells the two stamps apart, and that is enough for
        // the first holder to discard its copy.
        let root = scratch_root("stolen");
        let path = root.join("cell.lease");
        let held = Lease::try_claim(&path, Duration::from_millis(1)).expect("io").expect("claim");
        assert!(held.check(None).expect("io"), "owned lease passes check");
        std::thread::sleep(Duration::from_millis(5));
        let thief = claim(&path).expect("expired lease is stolen");
        assert_eq!(thief.takeovers(), 1);
        assert!(!held.check(None).expect("io"), "stolen lease must fail its check");
        assert!(thief.check(None).expect("io"), "the thief owns it now");
        drop(held);
        assert!(path.exists(), "drop must not delete the thief's lease");
        drop(thief);
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn injected_lease_expiry_surfaces_as_lost() {
        let root = scratch_root("inject");
        let path = root.join("cell.lease");
        let held = claim(&path).expect("claim");
        let faults = FaultInjector::parse("lease:expire:count=1").expect("spec parses");
        assert!(!held.check(Some(&faults)).expect("io"), "armed rule must fire");
        // The rule unlinked the lease, so the loss is real on disk and
        // the path is re-claimable.
        assert!(claim(&path).is_some());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn racing_claimants_never_mistake_a_fresh_claim_for_a_torn_lease() {
        // Claims are published by hard link, so a lease file is never
        // observable without its stamp: every round has exactly one
        // winner and nothing is ever counted as a takeover.
        let root = scratch_root("race");
        const THREADS: usize = 4;
        const ROUNDS: usize = 200;
        let barrier = std::sync::Barrier::new(THREADS);
        let wins: Vec<AtomicU32> = (0..ROUNDS).map(|_| AtomicU32::new(0)).collect();
        let takeovers = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for (round, won) in wins.iter().enumerate() {
                        barrier.wait();
                        let claim = claim(&root.join(format!("{round}.lease")));
                        if let Some(lease) = &claim {
                            won.fetch_add(1, Ordering::Relaxed);
                            takeovers.fetch_add(lease.takeovers(), Ordering::Relaxed);
                        }
                        // Hold until every thread has attempted, so the
                        // winner's release cannot look like a free path.
                        barrier.wait();
                        drop(claim);
                    }
                });
            }
        });
        for (round, count) in wins.iter().enumerate() {
            assert_eq!(count.load(Ordering::Relaxed), 1, "round {round} must have one winner");
        }
        assert_eq!(takeovers.into_inner(), 0, "no live claim may be judged torn and stolen");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn live_holder_means_contention_naming_its_pid() {
        let root = scratch_root("contended");
        let path = root.join("journal.lock");
        let telemetry = Telemetry::disabled();
        let _held =
            Lease::acquire(&path, Duration::MAX, Duration::ZERO, &telemetry).expect("first");
        let err = Lease::acquire(&path, Duration::MAX, Duration::from_millis(30), &telemetry)
            .expect_err("second claimant must fail");
        match err {
            SimError::CacheContention { holder, .. } => {
                assert_eq!(holder, Some(std::process::id()), "holder pid is reported");
            }
            other => panic!("expected contention, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn saturated_deadlines_only_fall_to_dead_holders() {
        let root = scratch_root("saturated");
        let path = root.join("journal.lock");
        let telemetry = Telemetry::enabled();
        let held = Lease::acquire(&path, Duration::MAX, Duration::ZERO, &telemetry).expect("claim");
        let text = std::fs::read_to_string(&path).expect("stamped");
        let (stamp, deadline) = parse_lease(&text).expect("stamp parses");
        assert_eq!(stamp, ProcessStamp::current());
        assert_eq!(deadline, u64::MAX, "a Duration::MAX TTL saturates the deadline");
        drop(held);
        // The same stamp from a dead incarnation is taken over.
        std::fs::write(&path, format!("{} {}\n", recycled_stamp(1).to_line(), u64::MAX))
            .expect("plant dead holder");
        let lease = Lease::acquire(&path, Duration::MAX, Duration::ZERO, &telemetry)
            .expect("dead holder is taken over");
        assert_eq!(lease.takeovers(), 1);
        assert_eq!(telemetry.metrics().counters["lock_takeover"], 1);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn waiting_acquirer_wins_after_release() {
        let root = scratch_root("handoff");
        let path = root.join("journal.lock");
        let held = Lease::acquire(&path, Duration::MAX, Duration::ZERO, &Telemetry::disabled())
            .expect("first");
        assert_eq!(held.wait_duration(), Duration::ZERO, "uncontended claim has no wait");
        let telemetry = Telemetry::enabled();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                Lease::acquire(&path, Duration::MAX, Duration::from_secs(10), &telemetry)
            });
            std::thread::sleep(Duration::from_millis(30));
            drop(held);
            let lease = waiter.join().expect("no panic").expect("acquired after release");
            assert!(lease.wait_duration() > Duration::ZERO, "handoff wait must be measured");
        });
        let events = telemetry.drain_events();
        let wait = events.iter().find(|e| e.name == "lock_wait").expect("lock_wait span");
        assert!(wait.dur_us > 0, "lock_wait span must carry the blocked duration");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn legacy_and_full_stamps_parse() {
        let stamp = ProcessStamp::parse("12345\n").expect("legacy stamp parses");
        assert_eq!(stamp, ProcessStamp { pid: 12345, start_time: None });
        let full = ProcessStamp::parse("12345 678\n").expect("full stamp parses");
        assert_eq!(full, ProcessStamp { pid: 12345, start_time: Some(678) });
        assert_eq!(full.to_line(), "12345 678");
        assert!(ProcessStamp::parse("").is_none());
        assert!(ProcessStamp::parse("pid 5").is_none());
        assert!(ProcessStamp::parse("5 then").is_none(), "trailing garbage is not a stamp");
        assert_eq!(parse_lease("12345 99\n"), Some((stamp, 99)), "PID-only lease stamp");
        assert_eq!(parse_lease("12345 678 99\n"), Some((full, 99)));
    }

    #[test]
    fn own_start_time_is_readable_and_stable() {
        if !Path::new("/proc").is_dir() {
            return;
        }
        let first = process_start_time(std::process::id()).expect("own stat readable");
        let second = process_start_time(std::process::id()).expect("still readable");
        assert_eq!(first, second, "start time never changes within one incarnation");
        assert!(ProcessStamp::current().alive(), "we are our own live incarnation");
    }
}
