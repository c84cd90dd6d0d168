//! The segmented log writer, the recovery scan, and the read-only
//! verify/inspect views.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::fault::{AppendFault, TearAction};
use crate::record::{parse_frame, Record};
use crate::WalError;

/// When appends reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every append, before [`Wal::append`] returns: no
    /// acked admission is ever lost, even to power failure. The slowest
    /// policy by far.
    Always,
    /// `fdatasync` at most once per this many milliseconds (`0` counts as
    /// 1), on a background syncer thread, whenever something was appended
    /// since the last sync, and at every segment rotation. Bounds the
    /// power-loss window to about one interval without an append ever
    /// waiting for the disk. The default, at 100 ms.
    IntervalMs(u64),
    /// Never sync explicitly; the OS flushes on its own schedule. Still
    /// exactly-once under a killed *process* (page cache survives
    /// SIGKILL), durable against power loss only after the kernel
    /// writeback interval.
    Never,
}

impl FsyncPolicy {
    /// Parse `always`, `never`, or a number of milliseconds.
    ///
    /// # Errors
    ///
    /// Describes the accepted forms.
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            ms => ms
                .parse()
                .map(FsyncPolicy::IntervalMs)
                .map_err(|_| format!("fsync policy `{ms}` is not always|never|<milliseconds>")),
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::IntervalMs(ms) => write!(f, "{ms}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// Log location and durability knobs.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the segment files (created if missing).
    pub dir: PathBuf,
    /// Fsync policy for appends.
    pub fsync: FsyncPolicy,
    /// Rotate to a fresh segment once the active one reaches this size.
    pub segment_bytes: u64,
}

impl WalConfig {
    /// Defaults: 100 ms interval fsync, 64 MiB segments.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> WalConfig {
        WalConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::IntervalMs(100),
            segment_bytes: 64 << 20,
        }
    }
}

/// Where and why a scan stopped accepting frames.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Damage {
    /// Index of the damaged segment.
    pub segment: u64,
    /// Byte offset of the first unreadable frame in that segment.
    pub offset: u64,
    /// Human-readable stop reason.
    pub reason: String,
}

/// What recovery did, for operators and the `scratch_wal_*` metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Segment files scanned.
    pub segments: u64,
    /// Valid frames accepted across all segments.
    pub frames: u64,
    /// Admission records seen.
    pub admitted: u64,
    /// Completion records seen.
    pub completed: u64,
    /// Checkpoint records seen.
    pub checkpoints: u64,
    /// Unfinished jobs re-admitted for execution.
    pub replayed: u64,
    /// Of those, jobs resuming from a durable checkpoint instead of
    /// re-running from scratch.
    pub resumed: u64,
    /// Jobs whose completion record suppressed re-execution.
    pub deduped: u64,
    /// Bytes truncated off the damaged segment's tail.
    pub torn_bytes: u64,
    /// Whole segments dropped because they sat past the damage.
    pub dropped_segments: u64,
    /// Recovery wall clock, milliseconds (scan + truncate, not replay).
    pub recovery_ms: u64,
}

/// One unfinished job recovered from the log, in admission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingEntry {
    /// The original request id (completions must settle under it).
    pub id: u64,
    /// Tenant the job bills against.
    pub tenant: String,
    /// Submission label.
    pub label: String,
    /// The admission payload exactly as journaled.
    pub payload: Vec<u8>,
    /// Newest durable checkpoint: output base address + snap bytes.
    pub checkpoint: Option<(u64, Vec<u8>)>,
}

/// Everything [`Wal::open`] recovered.
#[derive(Debug)]
pub struct Recovery {
    /// Unfinished jobs to re-admit, in admission order.
    pub pending: Vec<PendingEntry>,
    /// The operator-facing summary.
    pub report: RecoveryReport,
    /// First request id the restarted server may mint: one past the
    /// largest id in the log, so ids stay unique across lifetimes.
    pub next_id: u64,
}

/// What one append did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendInfo {
    /// Frame bytes written (header + payload).
    pub bytes: u64,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:08}.seg"))
}

/// Existing segment files, sorted by index.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(index) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".seg"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        out.push((index, entry.path()));
    }
    out.sort_unstable_by_key(|(index, _)| *index);
    Ok(out)
}

/// Fold of one full scan: every valid frame in segment order, plus the
/// first damage (if any) and the segments sitting past it.
struct Scan {
    frames: u64,
    damage: Option<Damage>,
    /// Segments after the damaged one (whole files past the valid
    /// prefix), with their sizes.
    dropped: Vec<(PathBuf, u64)>,
    /// Bytes past the last valid frame inside the damaged segment.
    torn_bytes: u64,
    segments: u64,
    /// Index and valid length of the last surviving segment, if any.
    last_valid: Option<(u64, u64)>,
}

fn scan(dir: &Path, mut on_record: impl FnMut(&Record)) -> Result<Scan, WalError> {
    let mut result = Scan {
        frames: 0,
        damage: None,
        dropped: Vec::new(),
        torn_bytes: 0,
        segments: 0,
        last_valid: None,
    };
    for (index, path) in list_segments(dir)? {
        result.segments += 1;
        if result.damage.is_some() {
            let len = std::fs::metadata(&path)?.len();
            result.dropped.push((path, len));
            continue;
        }
        let buf = std::fs::read(&path)?;
        let mut offset = 0usize;
        loop {
            match parse_frame(&buf, offset) {
                Ok(None) => break,
                Ok(Some((record, consumed))) => {
                    on_record(&record);
                    result.frames += 1;
                    offset += consumed;
                }
                Err(reason) => {
                    result.torn_bytes = (buf.len() - offset) as u64;
                    result.damage = Some(Damage {
                        segment: index,
                        offset: offset as u64,
                        reason: reason.to_string(),
                    });
                    break;
                }
            }
        }
        result.last_valid = Some((index, offset as u64));
    }
    Ok(result)
}

/// Recovery fold state shared by [`Wal::open`] and the read-only views.
#[derive(Default)]
struct Fold {
    /// Admission order of ids (first admission wins on duplicates).
    order: Vec<u64>,
    admitted: BTreeMap<u64, (String, String, Vec<u8>)>,
    completed: BTreeMap<u64, u64>,
    checkpoints: BTreeMap<u64, (u64, Vec<u8>)>,
    admitted_count: u64,
    completed_count: u64,
    checkpoint_count: u64,
    max_id: Option<u64>,
}

impl Fold {
    fn absorb(&mut self, record: &Record) {
        let id = record.id();
        self.max_id = Some(self.max_id.map_or(id, |m| m.max(id)));
        match record {
            Record::Admitted {
                id,
                tenant,
                label,
                payload,
            } => {
                self.admitted_count += 1;
                if !self.admitted.contains_key(id) {
                    self.order.push(*id);
                    self.admitted
                        .insert(*id, (tenant.clone(), label.clone(), payload.clone()));
                }
            }
            Record::Completed { id, .. } => {
                self.completed_count += 1;
                *self.completed.entry(*id).or_insert(0) += 1;
            }
            Record::Checkpoint { id, out_addr, snap } => {
                self.checkpoint_count += 1;
                // Newest durable checkpoint wins; one completed or never
                // admitted is useless but harmless to remember.
                self.checkpoints.insert(*id, (*out_addr, snap.clone()));
            }
        }
    }
}

/// Called after every fsync the writer completes (see
/// [`Wal::set_sync_observer`]).
type SyncObserver = Box<dyn Fn() + Send + Sync>;

/// What the writer shares with its background syncer.
struct SyncState {
    /// The segment receiving appends; rotation swaps it.
    active: Mutex<Arc<File>>,
    /// Set by every interval-policy append after its write, cleared by
    /// the syncer just before the sync that covers it (the append's
    /// Release store pairs with the syncer's AcqRel swap).
    dirty: AtomicBool,
    /// `true` once the writer is closing; the syncer exits.
    stop: Mutex<bool>,
    wake: Condvar,
    observer: Mutex<Option<SyncObserver>>,
}

impl SyncState {
    /// Sync `file` and tell the observer.
    fn sync(&self, file: &File) -> std::io::Result<()> {
        file.sync_data()?;
        if let Some(observe) = &*self.observer.lock().expect("wal sync observer lock") {
            observe();
        }
        Ok(())
    }
}

impl fmt::Debug for SyncState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SyncState")
            .field("dirty", &self.dirty.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// The interval policy's syncer: every `interval`, sync the active
/// segment if anything was appended since the last sync, until told to
/// stop. A failed sync is reported and retried at the next interval.
fn run_syncer(state: &SyncState, interval: Duration) {
    loop {
        let stop = state.stop.lock().expect("wal syncer lock");
        let (stop, _) = state
            .wake
            .wait_timeout_while(stop, interval, |stop| !*stop)
            .expect("wal syncer lock");
        if *stop {
            return;
        }
        drop(stop);
        if state.dirty.swap(false, Ordering::AcqRel) {
            let file = Arc::clone(&state.active.lock().expect("wal active segment lock"));
            if let Err(e) = state.sync(&file) {
                state.dirty.store(true, Ordering::Release);
                eprintln!("scratch-wal: background fsync failed: {e}");
            }
        }
    }
}

/// The log writer. One per serving process; appends are serialized by the
/// caller (the serving layer holds it in a mutex). Under
/// [`FsyncPolicy::IntervalMs`] it owns a background syncer thread, which
/// [`Wal::close`] (or dropping the writer) stops and joins.
#[derive(Debug)]
pub struct Wal {
    config: WalConfig,
    active: Arc<File>,
    active_index: u64,
    active_len: u64,
    appends: u64,
    hook: Option<Box<dyn AppendFault>>,
    shared: Arc<SyncState>,
    syncer: Option<JoinHandle<()>>,
    closed: bool,
}

impl Wal {
    /// Open (or create) the log at `config.dir`, recover its state, and
    /// position the writer after the last valid frame.
    ///
    /// Torn or corrupt tails are truncated on disk here, so a subsequent
    /// [`verify`] of the directory reports clean.
    ///
    /// # Errors
    ///
    /// Filesystem failures only — damaged content is recovery input, not
    /// an error.
    pub fn open(config: WalConfig) -> Result<(Wal, Recovery), WalError> {
        let started = Instant::now();
        std::fs::create_dir_all(&config.dir)?;
        let mut fold = Fold::default();
        let scan = scan(&config.dir, |record| fold.absorb(record))?;

        // Truncate the damaged segment to its valid prefix and drop every
        // segment past it: the durable history is the longest valid
        // prefix, nothing else.
        let mut dropped_segments = 0u64;
        let mut torn_bytes = scan.torn_bytes;
        if let Some(damage) = &scan.damage {
            let path = segment_path(&config.dir, damage.segment);
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(damage.offset)?;
            file.sync_all()?;
            for (path, len) in &scan.dropped {
                torn_bytes += len;
                dropped_segments += 1;
                std::fs::remove_file(path)?;
            }
        }

        // The writer continues the last surviving segment unless it is
        // already past the rotation bound (or none exists yet).
        let (active_index, active_len) = match scan.last_valid {
            Some((index, len)) if len < config.segment_bytes => (index, len),
            Some((index, _)) => (index + 1, 0),
            None => (0, 0),
        };
        let active = Arc::new(
            OpenOptions::new()
                .append(true)
                .create(true)
                .open(segment_path(&config.dir, active_index))?,
        );
        let shared = Arc::new(SyncState {
            active: Mutex::new(Arc::clone(&active)),
            dirty: AtomicBool::new(false),
            stop: Mutex::new(false),
            wake: Condvar::new(),
            observer: Mutex::new(None),
        });
        let syncer = match config.fsync {
            FsyncPolicy::IntervalMs(ms) => {
                let state = Arc::clone(&shared);
                let interval = Duration::from_millis(ms.max(1));
                Some(
                    std::thread::Builder::new()
                        .name("scratch-wal-sync".to_owned())
                        .spawn(move || run_syncer(&state, interval))?,
                )
            }
            FsyncPolicy::Always | FsyncPolicy::Never => None,
        };

        let pending: Vec<PendingEntry> = fold
            .order
            .iter()
            .filter(|id| !fold.completed.contains_key(id))
            .map(|id| {
                let (tenant, label, payload) = fold.admitted[id].clone();
                PendingEntry {
                    id: *id,
                    tenant,
                    label,
                    payload,
                    checkpoint: fold.checkpoints.get(id).cloned(),
                }
            })
            .collect();
        let resumed = pending.iter().filter(|p| p.checkpoint.is_some()).count() as u64;
        let deduped = fold.completed.len() as u64;
        let report = RecoveryReport {
            segments: scan.segments,
            frames: scan.frames,
            admitted: fold.admitted_count,
            completed: fold.completed_count,
            checkpoints: fold.checkpoint_count,
            replayed: pending.len() as u64,
            resumed,
            deduped,
            torn_bytes,
            dropped_segments,
            recovery_ms: u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX),
        };
        let recovery = Recovery {
            pending,
            report,
            next_id: fold.max_id.map_or(0, |m| m + 1),
        };
        Ok((
            Wal {
                config,
                active,
                active_index,
                active_len,
                appends: 0,
                hook: None,
                shared,
                syncer,
                closed: false,
            },
            recovery,
        ))
    }

    /// The configured directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// Index of the segment currently receiving appends.
    #[must_use]
    pub fn active_segment(&self) -> u64 {
        self.active_index
    }

    /// Install a test-only append saboteur (see [`AppendFault`](crate::AppendFault)).
    pub fn set_fault_hook(&mut self, hook: Box<dyn AppendFault>) {
        self.hook = Some(hook);
    }

    /// Call `observer` after every fsync the writer completes: each
    /// append's under [`FsyncPolicy::Always`], the background syncer's
    /// under [`FsyncPolicy::IntervalMs`], every rotation's, and those of
    /// [`Wal::sync`] and [`Wal::close`]. The serving layer counts them.
    pub fn set_sync_observer(&mut self, observer: impl Fn() + Send + Sync + 'static) {
        *self.shared.observer.lock().expect("wal sync observer lock") = Some(Box::new(observer));
    }

    /// Append one record, honouring the fsync policy and rotating the
    /// segment when it fills. Only [`FsyncPolicy::Always`] makes the
    /// append wait for the disk.
    ///
    /// # Errors
    ///
    /// Filesystem failure, an oversized record, an installed fault hook
    /// tearing the write, or a [closed](Wal::close) writer.
    pub fn append(&mut self, record: &Record) -> Result<AppendInfo, WalError> {
        if self.closed {
            return Err(WalError::Closed);
        }
        let frame = record.frame()?;
        self.appends += 1;
        let mut file = &*self.active;
        if let Some(hook) = &mut self.hook {
            if let TearAction::Tear { keep, abort } = hook.on_append(self.appends, &frame) {
                let keep = keep.min(frame.len());
                file.write_all(&frame[..keep])?;
                file.flush()?;
                self.active_len += keep as u64;
                if abort {
                    // Make the torn bytes reach the disk exactly as a
                    // power cut would leave them, then die mid-append.
                    let _ = self.active.sync_data();
                    eprintln!(
                        "scratch-wal: fault hook aborting mid-append \
                         (append #{}, kept {keep} of {} frame bytes)",
                        self.appends,
                        frame.len()
                    );
                    std::process::abort();
                }
                return Err(WalError::TornWrite);
            }
        }
        file.write_all(&frame)?;
        self.active_len += frame.len() as u64;
        match self.config.fsync {
            FsyncPolicy::Always => self.shared.sync(file)?,
            FsyncPolicy::IntervalMs(_) => self.shared.dirty.store(true, Ordering::Release),
            FsyncPolicy::Never => {}
        }
        if self.active_len >= self.config.segment_bytes {
            self.rotate()?;
        }
        Ok(AppendInfo {
            bytes: frame.len() as u64,
        })
    }

    /// Force an fsync of the active segment, whatever the policy.
    ///
    /// # Errors
    ///
    /// The underlying `fdatasync` failed.
    pub fn sync(&mut self) -> Result<(), WalError> {
        Ok(self.shared.sync(&self.active)?)
    }

    /// End the writer's life (drain and shutdown): stop and join the
    /// background syncer, then sync the active segment. Appends after
    /// this are refused with [`WalError::Closed`].
    ///
    /// # Errors
    ///
    /// The final `fdatasync` failed.
    pub fn close(&mut self) -> Result<(), WalError> {
        self.stop_syncer();
        self.closed = true;
        self.sync()
    }

    /// Also runs in `Drop`, so it must not panic: the flag is a plain
    /// bool, valid even behind a poisoned lock.
    fn stop_syncer(&mut self) {
        if let Some(syncer) = self.syncer.take() {
            *self
                .shared
                .stop
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
            self.shared.wake.notify_all();
            let _ = syncer.join();
        }
    }

    fn rotate(&mut self) -> Result<(), WalError> {
        // A closed segment is history: make it durable regardless of
        // policy before moving on.
        self.shared.sync(&self.active)?;
        self.active_index += 1;
        self.active = Arc::new(
            OpenOptions::new()
                .append(true)
                .create(true)
                .open(segment_path(&self.config.dir, self.active_index))?,
        );
        *self.shared.active.lock().expect("wal active segment lock") = Arc::clone(&self.active);
        self.active_len = 0;
        Ok(())
    }
}

impl Drop for Wal {
    /// Stop and join the background syncer. Dropping does not sync;
    /// [`Wal::close`] does.
    fn drop(&mut self) {
        self.stop_syncer();
    }
}

/// One completion record's content, as read back by [`WalState::read`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompletionMeta {
    /// Whether the run succeeded.
    pub ok: bool,
    /// Output digest.
    pub digest: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Failure description (empty when ok).
    pub error: String,
}

/// A read-only materialisation of the log, for harnesses and audits (the
/// chaos driver checks its exactly-once invariant against this).
#[derive(Debug, Default)]
pub struct WalState {
    /// Admitted ids → (tenant, label), first admission record wins.
    pub admitted: BTreeMap<u64, (String, String)>,
    /// Every completion record per id, in log order. Exactly-once means
    /// every vec here has length 1.
    pub completions: BTreeMap<u64, Vec<CompletionMeta>>,
    /// Checkpoint records per id.
    pub checkpoints: BTreeMap<u64, u64>,
    /// First damage the scan hit, if any (an unrecovered log may have a
    /// torn tail; a log [`Wal::open`] has already recovered will not).
    pub damage: Option<Damage>,
}

impl WalState {
    /// Scan `dir` without mutating anything.
    ///
    /// # Errors
    ///
    /// Filesystem failure.
    pub fn read(dir: &Path) -> Result<WalState, WalError> {
        let mut state = WalState::default();
        let scan = scan(dir, |record| match record {
            Record::Admitted {
                id, tenant, label, ..
            } => {
                state
                    .admitted
                    .entry(*id)
                    .or_insert_with(|| (tenant.clone(), label.clone()));
            }
            Record::Completed {
                id,
                ok,
                digest,
                cycles,
                instructions,
                error,
            } => {
                state
                    .completions
                    .entry(*id)
                    .or_default()
                    .push(CompletionMeta {
                        ok: *ok,
                        digest: *digest,
                        cycles: *cycles,
                        instructions: *instructions,
                        error: error.clone(),
                    });
            }
            Record::Checkpoint { id, .. } => {
                *state.checkpoints.entry(*id).or_insert(0) += 1;
            }
        })?;
        state.damage = scan.damage;
        Ok(state)
    }
}

/// What [`verify`] found.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerifyReport {
    /// Segment files present.
    pub segments: u64,
    /// Valid frames.
    pub frames: u64,
    /// Admission records.
    pub admitted: u64,
    /// Completion records.
    pub completed: u64,
    /// Checkpoint records.
    pub checkpoints: u64,
    /// Admitted jobs with no completion record.
    pub unfinished: u64,
    /// Ids with more than one completion record (an exactly-once
    /// violation).
    pub duplicate_completions: u64,
    /// Completion records whose id was never admitted.
    pub orphan_completions: u64,
    /// First damage hit by the scan, if any.
    pub damage: Option<Damage>,
}

impl VerifyReport {
    /// No damage, no duplicate completions, no orphans.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.damage.is_none() && self.duplicate_completions == 0 && self.orphan_completions == 0
    }
}

/// Audit the log at `dir` read-only: frame integrity plus the admission /
/// completion bookkeeping invariants.
///
/// # Errors
///
/// Filesystem failure only; damage is a finding, not an error.
pub fn verify(dir: &Path) -> Result<VerifyReport, WalError> {
    let state = WalState::read(dir)?;
    let mut report = VerifyReport {
        damage: state.damage.clone(),
        ..VerifyReport::default()
    };
    let scan = scan(dir, |_| {})?;
    report.segments = scan.segments;
    report.frames = scan.frames;
    report.admitted = state.admitted.len() as u64;
    report.checkpoints = state.checkpoints.values().sum();
    for (id, completions) in &state.completions {
        report.completed += completions.len() as u64;
        if completions.len() > 1 {
            report.duplicate_completions += 1;
        }
        if !state.admitted.contains_key(id) {
            report.orphan_completions += 1;
        }
    }
    report.unfinished = state
        .admitted
        .keys()
        .filter(|id| !state.completions.contains_key(id))
        .count() as u64;
    Ok(report)
}

/// One frame's position and summary, for `wal inspect`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InspectEntry {
    /// Segment index.
    pub segment: u64,
    /// Frame offset inside the segment.
    pub offset: u64,
    /// [`Record::summary`] of the decoded record.
    pub summary: String,
}

/// List up to `limit` frames in log order (0 = no limit), read-only.
///
/// # Errors
///
/// Filesystem failure.
pub fn inspect(dir: &Path, limit: usize) -> Result<Vec<InspectEntry>, WalError> {
    let mut out = Vec::new();
    for (index, path) in list_segments(dir)? {
        let buf = std::fs::read(&path)?;
        let mut offset = 0usize;
        while let Ok(Some((record, consumed))) = parse_frame(&buf, offset) {
            if limit > 0 && out.len() >= limit {
                return Ok(out);
            }
            out.push(InspectEntry {
                segment: index,
                offset: offset as u64,
                summary: record.summary(),
            });
            offset += consumed;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::TearOnce;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("scratch-wal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn admitted(id: u64) -> Record {
        Record::Admitted {
            id,
            tenant: format!("t{}", id % 3),
            label: format!("job-{id}"),
            payload: format!("{{\"job\":{id}}}").into_bytes(),
        }
    }

    fn completed(id: u64) -> Record {
        Record::Completed {
            id,
            ok: true,
            digest: id.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            cycles: 100 + id,
            instructions: 10 + id,
            error: String::new(),
        }
    }

    #[test]
    fn fresh_log_recovers_empty_and_appends_round_trip() {
        let dir = temp_dir("fresh");
        let (mut wal, recovery) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert!(recovery.pending.is_empty());
        assert_eq!(recovery.next_id, 0);
        assert_eq!(recovery.report.frames, 0);

        for id in 0..4 {
            wal.append(&admitted(id)).unwrap();
        }
        wal.append(&completed(1)).unwrap();
        wal.append(&Record::Checkpoint {
            id: 2,
            out_addr: 64,
            snap: vec![9; 128],
        })
        .unwrap();
        drop(wal);

        let (_, recovery) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(recovery.next_id, 4);
        let ids: Vec<u64> = recovery.pending.iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![0, 2, 3], "completed job 1 is deduped");
        let with_ck = &recovery.pending[1];
        assert_eq!(with_ck.id, 2);
        assert_eq!(with_ck.checkpoint.as_ref().unwrap().0, 64);
        assert_eq!(recovery.report.replayed, 3);
        assert_eq!(recovery.report.resumed, 1);
        assert_eq!(recovery.report.deduped, 1);
        assert_eq!(recovery.report.torn_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_the_valid_prefix_survives() {
        let dir = temp_dir("torn");
        let (mut wal, _) = Wal::open(WalConfig::new(&dir)).unwrap();
        // Appends 1-3 land intact; append 4 is torn mid-frame.
        wal.set_fault_hook(Box::new(TearOnce::new(4, 0.5)));
        for id in 0..3 {
            wal.append(&admitted(id)).unwrap();
        }
        assert!(matches!(wal.append(&admitted(3)), Err(WalError::TornWrite)));
        drop(wal);

        let before = verify(&dir).unwrap();
        assert!(before.damage.is_some(), "torn tail must be flagged");

        let (_, recovery) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(recovery.report.frames, 3);
        assert!(recovery.report.torn_bytes > 0);
        assert_eq!(recovery.pending.len(), 3);
        assert_eq!(recovery.next_id, 3, "the torn admission never happened");

        // Recovery truncated the tail: the log is clean now and appends
        // continue after the valid prefix.
        let after = verify(&dir).unwrap();
        assert!(after.damage.is_none());
        assert_eq!(after.frames, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_rotate_and_recovery_reads_across_them() {
        let dir = temp_dir("rotate");
        let config = WalConfig {
            segment_bytes: 256, // tiny, to force rotations
            ..WalConfig::new(&dir)
        };
        let (mut wal, _) = Wal::open(config.clone()).unwrap();
        for id in 0..32 {
            wal.append(&admitted(id)).unwrap();
            wal.append(&completed(id)).unwrap();
        }
        assert!(wal.active_segment() > 0, "rotation must have happened");
        drop(wal);

        let (_, recovery) = Wal::open(config).unwrap();
        assert!(recovery.report.segments > 1);
        assert_eq!(recovery.report.admitted, 32);
        assert_eq!(recovery.report.deduped, 32);
        assert!(recovery.pending.is_empty());
        assert_eq!(recovery.next_id, 32);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damage_mid_log_drops_later_segments() {
        let dir = temp_dir("drop");
        let config = WalConfig {
            segment_bytes: 256,
            ..WalConfig::new(&dir)
        };
        let (mut wal, _) = Wal::open(config.clone()).unwrap();
        for id in 0..32 {
            wal.append(&admitted(id)).unwrap();
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 2);
        // Corrupt a byte in the middle of the *first* segment: everything
        // after it — including whole later segments — is untrusted.
        let (_, first) = &segments[0];
        let mut bytes = std::fs::read(first).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(first, &bytes).unwrap();

        let (_, recovery) = Wal::open(config).unwrap();
        assert!(recovery.report.dropped_segments > 0);
        assert!(recovery.report.torn_bytes > 0);
        assert!(verify(&dir).unwrap().damage.is_none(), "recovered clean");
        assert_eq!(list_segments(&dir).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_policies_parse() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(
            FsyncPolicy::parse("250").unwrap(),
            FsyncPolicy::IntervalMs(250)
        );
        assert!(FsyncPolicy::parse("sometimes").is_err());
    }

    /// Count the fsyncs `wal` reports from now on.
    fn count_syncs(wal: &mut Wal) -> Arc<std::sync::atomic::AtomicU64> {
        let syncs = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let counter = Arc::clone(&syncs);
        wal.set_sync_observer(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        syncs
    }

    #[test]
    fn each_policy_syncs_when_it_promises() {
        let open = |tag: &str, fsync: FsyncPolicy| {
            let (mut wal, _) = Wal::open(WalConfig {
                fsync,
                ..WalConfig::new(temp_dir(tag))
            })
            .unwrap();
            let syncs = count_syncs(&mut wal);
            (wal, syncs)
        };

        // `always`: every append has synced by the time it returns.
        let (mut wal, syncs) = open("policy-always", FsyncPolicy::Always);
        for id in 0..3 {
            wal.append(&admitted(id)).unwrap();
            assert_eq!(
                syncs.load(Ordering::SeqCst),
                id + 1,
                "synced before returning"
            );
        }
        let _ = std::fs::remove_dir_all(wal.dir());

        // An interval too long to elapse: appends never sync inline, and
        // `close` syncs once, joins the syncer and refuses later appends.
        let (mut wal, syncs) = open("policy-hour", FsyncPolicy::IntervalMs(3_600_000));
        for id in 0..3 {
            wal.append(&admitted(id)).unwrap();
        }
        assert_eq!(syncs.load(Ordering::SeqCst), 0, "no append paid a sync");
        wal.close().unwrap();
        assert_eq!(syncs.load(Ordering::SeqCst), 1, "close synced");
        assert!(wal.syncer.is_none(), "close joined the syncer");
        assert!(matches!(wal.append(&admitted(3)), Err(WalError::Closed)));
        let _ = std::fs::remove_dir_all(wal.dir());

        // A short interval: the background syncer covers the append.
        let (mut wal, syncs) = open("policy-interval", FsyncPolicy::IntervalMs(1));
        wal.append(&admitted(0)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while syncs.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "the syncer never synced");
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = std::fs::remove_dir_all(wal.dir());
        drop(wal);

        // `never`: appends do not sync, however long they sit.
        let (mut wal, syncs) = open("policy-never", FsyncPolicy::Never);
        wal.append(&admitted(0)).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(syncs.load(Ordering::SeqCst), 0);
        assert!(wal.syncer.is_none(), "no syncer without an interval");
        let _ = std::fs::remove_dir_all(wal.dir());
    }

    #[test]
    fn verify_flags_duplicates_and_orphans() {
        let dir = temp_dir("verify");
        let (mut wal, _) = Wal::open(WalConfig::new(&dir)).unwrap();
        wal.append(&admitted(0)).unwrap();
        wal.append(&completed(0)).unwrap();
        wal.append(&completed(0)).unwrap(); // duplicate
        wal.append(&completed(5)).unwrap(); // orphan
        drop(wal);
        let report = verify(&dir).unwrap();
        assert_eq!(report.duplicate_completions, 1);
        assert_eq!(report.orphan_completions, 1);
        assert!(!report.clean());

        let entries = inspect(&dir, 0).unwrap();
        assert_eq!(entries.len(), 4);
        assert!(entries[0].summary.contains("admitted"));
        assert!(entries[1].summary.contains("completed"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
