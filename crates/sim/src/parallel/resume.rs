//! Crash-resumable pipelined sweeps: window-boundary checkpoints, a
//! completed-window journal, bounded worker retry, and in-process
//! degradation — all pinned bit-identical to an uninterrupted
//! [`PlSimulator::run_stream`].
//!
//! # On-disk layout
//!
//! [`sweep_resumable`] owns one directory per sweep:
//!
//! | file | contents |
//! |------|----------|
//! | `sweep.meta` | run identity: magic `PLSWMETA`, format version, netlist fingerprint, delay-model digest, vector-stream digest, window size, vector count, trailing CRC32 |
//! | `journal.bin` | append-only completed-window log; each entry is `len:u32 \| payload \| crc32(payload):u32` with payload `window:u64, last_tick:u64, n_words:u64, width:u64, words as 0/1 bytes` |
//! | `window-{k:08}.ck` | the [`crate::SimCheckpoint`] wire encoding ([`crate::checkpoint::wire`]) of the leader state at the boundary *before* window `k`, for `k >= 1` (boundary 0 is the fresh simulator — no file needed) |
//!
//! Every file is written atomically (write `*.tmp`, `sync_all`, rename),
//! so a kill can leave at worst a stale `*.tmp` (ignored) or a torn
//! journal *tail* (detected by the per-entry CRC and truncated away on
//! recovery — completed entries before it survive).
//!
//! # Recovery
//!
//! On `resume`, the runner decodes `sweep.meta` (any corruption is a
//! typed fatal [`SimError`] — a directory whose identity cannot be
//! trusted is not resumed), rejects parameter drift with
//! [`SimError::ResumeMismatch`], replays the journal to learn which
//! windows already completed, finds the first incomplete window `F`, and
//! restarts the leader from the *largest decodable* checkpoint boundary
//! `<= F`. A corrupt or missing `window-k.ck` is recorded in
//! [`SweepRecovery::corrupt_files`] and routed around by falling back to
//! the previous boundary (ultimately boundary 0), never trusted: the
//! wire format's digests and CRCs decide, so resumption is correct even
//! if every checkpoint file was byte-flipped.
//!
//! # Fault tolerance during a run
//!
//! Window replays run on a scoped worker pool with `catch_unwind`
//! isolation. A window whose worker panics or returns an error is
//! retried up to [`ResumableOptions::max_retries`] times; past the
//! budget the failure is recorded in [`SweepRecovery::worker_failures`]
//! and the window degrades to in-process sequential execution on the
//! caller's thread ([`SweepRecovery::degraded_windows`]) — a determinism
//! bug that also fails in-process then surfaces as the run's error
//! rather than being swallowed. Replay is deterministic, so none of this
//! changes a single output bit.
//!
//! Memory note: unlike [`super::sweep_pipelined`], the leader here keeps
//! recording output words (no pruning), so each `window-k.ck` file is a
//! *self-contained* restart point decodable in a fresh process. Leader
//! memory and checkpoint size are therefore O(rounds so far) — the price
//! of crash-resumability; keep windows coarse for very long sweeps.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, AtomicU32, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use pl_core::PlNetlist;

use crate::checkpoint::wire::{crc32, delay_digest, Reader};
use crate::checkpoint::{netlist_fingerprint, Fnv64, SimCheckpoint};
use crate::delay::{ticks_to_ns, DelayModel};
use crate::engine::{PlSimulator, StreamOutcome};
use crate::error::SimError;
use crate::parallel::effective_jobs;

/// Magic bytes opening `sweep.meta` (distinct from the checkpoint
/// magic, so the two file kinds can never be confused).
pub const META_MAGIC: [u8; 8] = *b"PLSWMETA";

/// `sweep.meta` format version this build writes and accepts.
pub const META_VERSION: u32 = 1;

/// Tuning knobs for [`sweep_resumable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumableOptions {
    /// Vectors per window (checkpoint/journal granularity). Must be > 0.
    pub window: usize,
    /// Worker threads; `0` asks the OS ([`effective_jobs`]).
    pub jobs: usize,
    /// `true` resumes an interrupted sweep already in the directory;
    /// `false` starts fresh and refuses a directory that has one.
    pub resume: bool,
    /// Re-attempts granted to a failed or panicked window before it
    /// degrades to in-process execution (`2` means up to 3 attempts).
    pub max_retries: u32,
}

impl Default for ResumableOptions {
    fn default() -> Self {
        Self {
            window: 64,
            jobs: 0,
            resume: false,
            max_retries: 2,
        }
    }
}

/// One window that exhausted its worker retry budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowFailure {
    /// The window index that kept failing.
    pub window: usize,
    /// Worker attempts made before giving up (0 if the pool died before
    /// the window was ever picked up).
    pub attempts: u32,
    /// The last failure, rendered (panic payload or [`SimError`]).
    pub message: String,
}

/// What recovery and fault handling did during a [`sweep_resumable`]
/// run — the run's outputs are bit-identical regardless, this is the
/// audit trail.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SweepRecovery {
    /// Total windows in the sweep.
    pub windows: usize,
    /// Windows whose results were taken from the journal instead of
    /// being re-simulated (0 on a fresh run).
    pub replayed_from_journal: usize,
    /// The checkpoint boundary the leader restarted from (equals
    /// `windows` when the journal was already complete).
    pub restart_window: usize,
    /// Windows retried at least once that still succeeded on a worker.
    pub retried_windows: usize,
    /// Windows that exhausted the retry budget, oldest first.
    pub worker_failures: Vec<WindowFailure>,
    /// Windows re-run in-process after exhausting the retry budget.
    pub degraded_windows: usize,
    /// Corrupt or unreadable recovery files that were detected and
    /// routed around (`path: error` strings).
    pub corrupt_files: Vec<String>,
}

impl fmt::Display for SweepRecovery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} windows, {} from journal, restart at {}, {} retried, \
             {} failed, {} degraded, {} corrupt files",
            self.windows,
            self.replayed_from_journal,
            self.restart_window,
            self.retried_windows,
            self.worker_failures.len(),
            self.degraded_windows,
            self.corrupt_files.len()
        )
    }
}

/// A completed [`sweep_resumable`] run: the stream outcome (bit-identical
/// to [`PlSimulator::run_stream`]) plus its recovery audit trail.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumableOutcome {
    /// Outputs, makespan, and throughput of the full stream.
    pub outcome: StreamOutcome,
    /// What recovery and fault handling happened along the way.
    pub recovery: SweepRecovery,
}

/// Fault-injection hooks for [`sweep_resumable_with_faults`] — the
/// corruption harness's way to kill workers and halt runs at adversarial
/// points. A default-constructed plan injects nothing.
#[derive(Debug)]
pub struct FaultPlan {
    /// window -> remaining worker panics to inject for that window.
    panics: Mutex<HashMap<usize, u32>>,
    /// Remaining successful journal appends before the injected halt
    /// (-1 = disabled).
    halt_after: AtomicI64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            panics: Mutex::new(HashMap::new()),
            halt_after: AtomicI64::new(-1),
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Panics the worker replaying `window` on each of its next `times`
    /// attempts (each panic kills that worker thread; the window is
    /// retried by a surviving one).
    pub fn panic_on_window(&self, window: usize, times: u32) {
        *lock(&self.panics).entry(window).or_insert(0) += times;
    }

    /// Halts the run with a typed I/O error just before the `(n+1)`-th
    /// journal append — simulating a kill at a window boundary, after
    /// `n` windows durably completed.
    pub fn halt_after_journal_appends(&self, n: u64) {
        self.halt_after
            .store(i64::try_from(n).unwrap_or(i64::MAX), Ordering::SeqCst);
    }

    fn take_panic(&self, window: usize) -> bool {
        let mut m = lock(&self.panics);
        match m.get_mut(&window) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        }
    }

    fn check_halt(&self) -> Result<(), SimError> {
        let prev = self
            .halt_after
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                (v >= 0).then(|| v - 1)
            });
        match prev {
            Ok(0) => Err(SimError::CheckpointIo {
                path: "<fault-injection>".into(),
                message: "injected halt before journal append".into(),
            }),
            _ => Ok(()),
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn io_err(path: &Path, e: &std::io::Error) -> SimError {
    SimError::CheckpointIo {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// Durable write: `*.tmp`, `sync_all`, rename over the target. A kill at
/// any point leaves either the old file or the complete new one.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SimError> {
    let tmp = path.with_extension("tmp");
    let write = |p: &Path| -> std::io::Result<()> {
        let mut f = fs::File::create(p)?;
        f.write_all(bytes)?;
        f.sync_all()
    };
    write(&tmp).map_err(|e| io_err(&tmp, &e))?;
    fs::rename(&tmp, path).map_err(|e| io_err(path, &e))
}

fn ck_path(dir: &Path, boundary: usize) -> PathBuf {
    dir.join(format!("window-{boundary:08}.ck"))
}

/// FNV-1a over the vector stream (counts + bit-packed values) — binds a
/// checkpoint directory to the exact inputs, since resuming under
/// different vectors would splice two unrelated streams.
fn vectors_digest(vectors: &[Vec<bool>]) -> u64 {
    let mut h = Fnv64::new();
    h.mix(vectors.len() as u64);
    for v in vectors {
        h.mix(v.len() as u64);
        let mut word = 0u64;
        let mut n = 0u32;
        for &b in v {
            word = word << 1 | u64::from(b);
            n += 1;
            if n == 64 {
                h.mix(word);
                word = 0;
                n = 0;
            }
        }
        if n > 0 {
            h.mix(word);
        }
    }
    h.finish()
}

struct MetaFields {
    fingerprint: u64,
    delay_digest: u64,
    vectors_digest: u64,
    window: u64,
    n_vectors: u64,
}

fn encode_meta(m: &MetaFields) -> Vec<u8> {
    let mut out = Vec::with_capacity(56);
    out.extend_from_slice(&META_MAGIC);
    out.extend_from_slice(&META_VERSION.to_le_bytes());
    out.extend_from_slice(&m.fingerprint.to_le_bytes());
    out.extend_from_slice(&m.delay_digest.to_le_bytes());
    out.extend_from_slice(&m.vectors_digest.to_le_bytes());
    out.extend_from_slice(&m.window.to_le_bytes());
    out.extend_from_slice(&m.n_vectors.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn decode_meta(bytes: &[u8]) -> Result<MetaFields, SimError> {
    let mut r = Reader::new(bytes);
    let magic = r.take(8, "sweep.meta magic")?;
    if magic != META_MAGIC {
        return Err(SimError::CheckpointBadMagic {
            found: magic.try_into().expect("8 bytes"),
        });
    }
    let version = r.u32("sweep.meta version")?;
    if version != META_VERSION {
        return Err(SimError::CheckpointVersionSkew {
            found: version,
            supported: META_VERSION,
        });
    }
    // Trailer CRC over everything before it; checked before the fields
    // are trusted, so any flip past the version is a checksum error.
    if r.remaining() < 44 {
        return Err(SimError::CheckpointTruncated {
            context: "sweep.meta",
            needed: 44,
            available: r.remaining(),
        });
    }
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    let computed = crc32(&bytes[..bytes.len() - 4]);
    if stored != computed {
        return Err(SimError::CheckpointChecksum {
            section: "sweep.meta",
            stored,
            computed,
        });
    }
    let fields = MetaFields {
        fingerprint: r.u64("sweep.meta fingerprint")?,
        delay_digest: r.u64("sweep.meta delay digest")?,
        vectors_digest: r.u64("sweep.meta vectors digest")?,
        window: r.u64("sweep.meta window")?,
        n_vectors: r.u64("sweep.meta vector count")?,
    };
    if r.remaining() != 4 {
        return Err(SimError::CheckpointOutOfRange {
            field: "sweep.meta trailing bytes",
            value: r.remaining() as u64,
            limit: 4,
        });
    }
    Ok(fields)
}

/// One decoded journal entry: a durably completed window.
struct JournalEntry {
    last_tick: u64,
    words: Vec<Vec<bool>>,
}

fn encode_entry(window: usize, last_tick: u64, words: &[Vec<bool>]) -> Vec<u8> {
    let width = words.first().map_or(0, Vec::len);
    let mut payload = Vec::with_capacity(32 + words.len() * width);
    payload.extend_from_slice(&(window as u64).to_le_bytes());
    payload.extend_from_slice(&last_tick.to_le_bytes());
    payload.extend_from_slice(&(words.len() as u64).to_le_bytes());
    payload.extend_from_slice(&(width as u64).to_le_bytes());
    for w in words {
        debug_assert_eq!(w.len(), width);
        for &b in w {
            payload.push(u8::from(b));
        }
    }
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let crc = crc32(&payload);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The shape every journal entry must decode into — anything else is
/// treated as the torn tail of a killed append.
struct JournalShape {
    n_windows: usize,
    window_len: usize,
    n_vectors: usize,
    width: usize,
}

impl JournalShape {
    fn words_in(&self, window: usize) -> usize {
        self.window_len
            .min(self.n_vectors - window * self.window_len)
    }
}

/// Parses one `len | payload | crc` frame. `None` means "malformed from
/// here on" — the caller truncates the tail.
fn parse_entry(bytes: &[u8], shape: &JournalShape) -> Option<(usize, usize, JournalEntry)> {
    let len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
    let payload = bytes.get(4..4 + len)?;
    let stored = u32::from_le_bytes(bytes.get(4 + len..4 + len + 4)?.try_into().ok()?);
    if crc32(payload) != stored {
        return None;
    }
    let mut r = Reader::new(payload);
    // Checked narrowing: a u64 that does not fit usize is malformed by
    // definition (no real window/word count gets near it), and an `as`
    // cast would instead truncate it into a plausible small value on
    // 32-bit targets.
    let window = usize::try_from(r.u64("journal").ok()?).ok()?;
    let last_tick = r.u64("journal").ok()?;
    let n_words = usize::try_from(r.u64("journal").ok()?).ok()?;
    let width = usize::try_from(r.u64("journal").ok()?).ok()?;
    if window >= shape.n_windows || width != shape.width || n_words != shape.words_in(window) {
        return None;
    }
    if r.remaining() != n_words.checked_mul(width)? {
        return None;
    }
    let mut words = Vec::with_capacity(n_words);
    for _ in 0..n_words {
        let row = r.take(width, "journal").ok()?;
        if row.iter().any(|&b| b > 1) {
            return None;
        }
        words.push(row.iter().map(|&b| b == 1).collect());
    }
    Some((8 + len, window, JournalEntry { last_tick, words }))
}

/// Replays `journal.bin`: returns the completed windows and, if a torn
/// tail was found, truncates it away (so the next append lands on a
/// clean frame boundary) and reports it as a note for
/// [`SweepRecovery::corrupt_files`].
fn scan_journal(
    path: &Path,
    shape: &JournalShape,
) -> Result<(HashMap<usize, JournalEntry>, Option<String>), SimError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((HashMap::new(), None)),
        Err(e) => return Err(io_err(path, &e)),
    };
    let mut completed = HashMap::new();
    let mut pos = 0usize;
    let mut note = None;
    while pos < bytes.len() {
        match parse_entry(&bytes[pos..], shape) {
            Some((consumed, window, entry)) => {
                completed.insert(window, entry);
                pos += consumed;
            }
            None => {
                let f = fs::OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| io_err(path, &e))?;
                f.set_len(pos as u64).map_err(|e| io_err(path, &e))?;
                f.sync_all().map_err(|e| io_err(path, &e))?;
                note = Some(format!(
                    "{}: torn journal tail truncated at byte {pos}",
                    path.display()
                ));
                break;
            }
        }
    }
    Ok((completed, note))
}

/// The journal file held open across the run; every append is a single
/// `write_all` + `sync_data`, so a kill tears at most the last frame.
struct Journal {
    file: fs::File,
    path: PathBuf,
}

impl Journal {
    fn open_append(path: PathBuf) -> Result<Self, SimError> {
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err(&path, &e))?;
        Ok(Self { file, path })
    }

    fn append(
        &mut self,
        faults: &FaultPlan,
        window: usize,
        last_tick: u64,
        words: &[Vec<bool>],
    ) -> Result<(), SimError> {
        faults.check_halt()?;
        let frame = encode_entry(window, last_tick, words);
        self.file
            .write_all(&frame)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| io_err(&self.path, &e))
    }
}

/// One staged window replay.
struct Task<'v> {
    window: usize,
    start_round: usize,
    vectors: &'v [Vec<bool>],
    checkpoint: SimCheckpoint,
}

/// A replayed window's payload: the collected output words plus the
/// replaying simulator's final tick.
type WindowResult = (Vec<Vec<bool>>, u64);

/// Per-task batch verdict: attempts made, then the replay result or the
/// last failure message.
type TaskResult = (u32, Result<WindowResult, String>);

/// Everything a batch's workers share besides the tasks themselves.
struct BatchCtx<'a> {
    pl: &'a PlNetlist,
    delays: &'a DelayModel,
    jobs: usize,
    max_retries: u32,
    faults: &'a FaultPlan,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// The batch's work queue: the next never-tried task, the retry stack,
/// and how many claimed tasks are still being attempted.
struct BatchQueue {
    next: usize,
    retry: Vec<usize>,
    in_flight: usize,
}

impl BatchQueue {
    /// Claims the next task, waiting while the queue is empty but an
    /// attempt in flight may still push a retry. `None` means the batch
    /// is drained: nothing queued and nothing in flight.
    fn claim(queue: &Mutex<Self>, wake: &Condvar, tasks: usize) -> Option<usize> {
        let mut q = lock(queue);
        loop {
            let task = q.retry.pop().or_else(|| {
                (q.next < tasks).then(|| {
                    q.next += 1;
                    q.next - 1
                })
            });
            if let Some(i) = task {
                q.in_flight += 1;
                return Some(i);
            }
            if q.in_flight == 0 {
                return None;
            }
            q = wake.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Ends an attempt at task `i`, queueing it for retry if asked.
    fn finish(queue: &Mutex<Self>, wake: &Condvar, i: usize, retry: bool) {
        let mut q = lock(queue);
        if retry {
            q.retry.push(i);
        }
        q.in_flight -= 1;
        wake.notify_all();
    }
}

/// Replays a batch of windows on up to `jobs` workers with retry.
///
/// Workers claim tasks from a shared queue; a failed attempt (error or
/// caught panic) goes onto a retry stack while the budget lasts. A
/// panicked worker's simulator state is unreliable, so that worker
/// thread exits; survivors pick the retry up. A worker that finds the
/// queue empty waits until no attempt is in flight, so a retry pushed by
/// a dying worker is never stranded. If the whole pool dies the leftover
/// tasks simply come back as failures — the caller degrades them
/// in-process, so the sweep always terminates.
fn run_batch(ctx: &BatchCtx<'_>, tasks: &[Task<'_>], base: &[usize]) -> Vec<TaskResult> {
    if tasks.is_empty() {
        return Vec::new();
    }
    let BatchCtx {
        pl,
        jobs,
        max_retries,
        faults,
        ..
    } = *ctx;
    let successes: Mutex<Vec<Option<WindowResult>>> =
        Mutex::new((0..tasks.len()).map(|_| None).collect());
    let fail_log: Mutex<Vec<Option<String>>> = Mutex::new(vec![None; tasks.len()]);
    let attempts: Vec<AtomicU32> = tasks.iter().map(|_| AtomicU32::new(0)).collect();
    let queue = Mutex::new(BatchQueue {
        next: 0,
        retry: Vec::new(),
        in_flight: 0,
    });
    let wake = Condvar::new();
    let workers = effective_jobs(jobs, tasks.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (successes, fail_log, attempts) = (&successes, &fail_log, &attempts);
            let (queue, wake) = (&queue, &wake);
            let delays = ctx.delays.clone();
            scope.spawn(move || {
                let mut sim = PlSimulator::new(pl, delays)
                    .expect("the leader already validated this netlist");
                while let Some(i) = BatchQueue::claim(queue, wake, tasks.len()) {
                    let t = &tasks[i];
                    let n = attempts[i].fetch_add(1, Ordering::SeqCst) + 1;
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        if faults.take_panic(t.window) {
                            panic!(
                                "injected fault: worker killed replaying window {}",
                                t.window
                            );
                        }
                        sim.restore(&t.checkpoint)?;
                        sim.replay_window(t.vectors, t.start_round, base)
                    }));
                    match outcome {
                        Ok(Ok(result)) => {
                            lock(successes)[i] = Some(result);
                            BatchQueue::finish(queue, wake, i, false);
                        }
                        Ok(Err(e)) => {
                            lock(fail_log)[i] = Some(e.to_string());
                            BatchQueue::finish(queue, wake, i, n <= max_retries);
                        }
                        Err(payload) => {
                            lock(fail_log)[i] = Some(panic_message(payload.as_ref()));
                            BatchQueue::finish(queue, wake, i, n <= max_retries);
                            break;
                        }
                    }
                }
            });
        }
    });
    let mut successes = successes
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let mut fail_log = fail_log
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    (0..tasks.len())
        .map(|i| {
            let n = attempts[i].load(Ordering::SeqCst);
            match successes[i].take() {
                Some(r) => (n.max(1), Ok(r)),
                None => (
                    n,
                    Err(fail_log[i].take().unwrap_or_else(|| {
                        "window never completed: worker pool exhausted".to_string()
                    })),
                ),
            }
        })
        .collect()
}

/// Runs one long vector stream as a crash-resumable pipelined sweep (see
/// the [module docs](self) for the on-disk layout and recovery rules).
/// The returned outputs, makespan, and throughput are **bit-identical to
/// a sequential [`PlSimulator::run_stream`]** for every `(jobs, window)`
/// combination, across kills, resumes, corrupt checkpoint files, and
/// worker failures.
///
/// # Errors
///
/// * [`SimError::CheckpointIo`] — directory/journal I/O failures, or a
///   fresh run pointed at a directory that already holds a sweep.
/// * [`SimError::CheckpointTruncated`] / [`SimError::CheckpointBadMagic`]
///   / [`SimError::CheckpointVersionSkew`] / [`SimError::CheckpointChecksum`]
///   — a resume whose `sweep.meta` is corrupt (fatal by design; corrupt
///   `window-*.ck` files are merely routed around).
/// * [`SimError::ResumeMismatch`] — a resume under a different netlist,
///   delay model, vector stream, or window size.
/// * Any simulation error ([`SimError::Deadlock`], ...) the sequential
///   run would also report, at the lowest failing window.
///
/// # Panics
///
/// Panics if `opts.window` is zero.
pub fn sweep_resumable(
    pl: &PlNetlist,
    delays: &DelayModel,
    vectors: &[Vec<bool>],
    dir: &Path,
    opts: &ResumableOptions,
) -> Result<ResumableOutcome, SimError> {
    sweep_resumable_with_faults(pl, delays, vectors, dir, opts, &FaultPlan::default())
}

/// [`sweep_resumable`] with a [`FaultPlan`] — the corruption-injection
/// harness's entry point, also exercised by the failure-injection test
/// suite. A default plan makes this identical to [`sweep_resumable`].
///
/// # Errors
///
/// Same conditions as [`sweep_resumable`], plus the typed I/O error an
/// armed [`FaultPlan::halt_after_journal_appends`] injects.
///
/// # Panics
///
/// Panics if `opts.window` is zero.
pub fn sweep_resumable_with_faults(
    pl: &PlNetlist,
    delays: &DelayModel,
    vectors: &[Vec<bool>],
    dir: &Path,
    opts: &ResumableOptions,
    faults: &FaultPlan,
) -> Result<ResumableOutcome, SimError> {
    assert!(opts.window > 0, "window must be at least 1");
    fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
    let meta_path = dir.join("sweep.meta");
    let meta = MetaFields {
        fingerprint: netlist_fingerprint(pl),
        delay_digest: delay_digest(delays),
        vectors_digest: vectors_digest(vectors),
        window: opts.window as u64,
        n_vectors: vectors.len() as u64,
    };
    let n_windows = vectors.len().div_ceil(opts.window);
    let mut recovery = SweepRecovery {
        windows: n_windows,
        ..SweepRecovery::default()
    };

    // Window results, indexed by window. Journal replay fills some of
    // these on resume; simulation fills the rest.
    let mut results: Vec<Option<(u64, Vec<Vec<bool>>)>> = (0..n_windows).map(|_| None).collect();

    if opts.resume {
        let bytes = fs::read(&meta_path).map_err(|e| io_err(&meta_path, &e))?;
        let stored = decode_meta(&bytes)?;
        for (field, stored, expected) in [
            ("netlist fingerprint", stored.fingerprint, meta.fingerprint),
            ("delay model digest", stored.delay_digest, meta.delay_digest),
            ("vector count", stored.n_vectors, meta.n_vectors),
            (
                "vector stream digest",
                stored.vectors_digest,
                meta.vectors_digest,
            ),
            ("window size", stored.window, meta.window),
        ] {
            if stored != expected {
                return Err(SimError::ResumeMismatch {
                    field,
                    stored,
                    expected,
                });
            }
        }
        let shape = JournalShape {
            n_windows,
            window_len: opts.window,
            n_vectors: vectors.len(),
            width: pl.output_gates().len(),
        };
        let (completed, note) = scan_journal(&dir.join("journal.bin"), &shape)?;
        recovery.replayed_from_journal = completed.len();
        if let Some(n) = note {
            recovery.corrupt_files.push(n);
        }
        for (k, e) in completed {
            results[k] = Some((e.last_tick, e.words));
        }
    } else {
        if fs::metadata(&meta_path).is_ok() {
            return Err(SimError::CheckpointIo {
                path: meta_path.display().to_string(),
                message: "directory already holds a sweep (resume it, or use a fresh directory)"
                    .into(),
            });
        }
        write_atomic(&meta_path, &encode_meta(&meta))?;
    }

    // Building the leader also validates the netlist, so worker-side
    // construction cannot fail once this succeeds.
    let mut leader = PlSimulator::new(pl, delays.clone())?;

    if let Some(first) = results.iter().position(Option::is_none) {
        // Restart the leader from the largest decodable boundary <= first;
        // corrupt checkpoint files are recorded and routed around.
        let mut restart = 0usize;
        for k in (1..=first).rev() {
            let path = ck_path(dir, k);
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => {
                    recovery
                        .corrupt_files
                        .push(format!("{}: {e}", path.display()));
                    continue;
                }
            };
            match SimCheckpoint::from_bytes(&bytes, pl, delays) {
                Ok(ck) => {
                    leader.restore(&ck)?;
                    restart = k;
                    break;
                }
                Err(e) => {
                    recovery
                        .corrupt_files
                        .push(format!("{}: {e}", path.display()));
                }
            }
        }
        recovery.restart_window = restart;

        let chunks: Vec<&[Vec<bool>]> = vectors.chunks(opts.window).collect();
        let jobs = effective_jobs(opts.jobs, n_windows - first);
        let batch_cap = 2 * jobs;
        let base = vec![0usize; pl.output_gates().len()];
        let mut journal = Journal::open_append(dir.join("journal.bin"))?;
        let mut leader_err: Option<SimError> = None;
        let mut k = restart;
        while k < n_windows && leader_err.is_none() {
            // Stage a batch: write the boundary checkpoint, queue the
            // window unless the journal already has it, advance the
            // leader through its vectors.
            let mut batch: Vec<Task<'_>> = Vec::new();
            while k < n_windows && batch.len() < batch_cap {
                let done = results[k].is_some();
                if k > 0 || !done {
                    let ck = leader.snapshot();
                    if k > 0 {
                        write_atomic(&ck_path(dir, k), &ck.to_bytes(delays))?;
                    }
                    if !done {
                        batch.push(Task {
                            window: k,
                            start_round: k * opts.window,
                            vectors: chunks[k],
                            checkpoint: ck,
                        });
                    }
                }
                let mut fed_err = None;
                for v in chunks[k] {
                    if let Err(e) = leader.feed_vector(v) {
                        fed_err = Some(e);
                        break;
                    }
                }
                k += 1;
                if let Some(e) = fed_err {
                    // The windows already staged may hold the true (lower)
                    // first error — flush them before reporting this one.
                    leader_err = Some(e);
                    break;
                }
            }
            let verdicts = run_batch(
                &BatchCtx {
                    pl,
                    delays,
                    jobs,
                    max_retries: opts.max_retries,
                    faults,
                },
                &batch,
                &base,
            );
            for (t, (made, verdict)) in batch.iter().zip(verdicts) {
                let (words, last) = match verdict {
                    Ok(r) => {
                        if made > 1 {
                            recovery.retried_windows += 1;
                        }
                        r
                    }
                    Err(message) => {
                        recovery.worker_failures.push(WindowFailure {
                            window: t.window,
                            attempts: made,
                            message,
                        });
                        // Degrade: replay in-process. An error here is the
                        // deterministic simulation error the sequential
                        // run would hit — propagate it.
                        let mut sim = PlSimulator::new(pl, delays.clone())?;
                        sim.restore(&t.checkpoint)?;
                        let r = sim.replay_window(t.vectors, t.start_round, &base)?;
                        recovery.degraded_windows += 1;
                        r
                    }
                };
                journal.append(faults, t.window, last, &words)?;
                results[t.window] = Some((last, words));
            }
        }
        if let Some(e) = leader_err {
            return Err(e);
        }
    } else {
        recovery.restart_window = n_windows;
    }

    let mut outputs = Vec::with_capacity(vectors.len());
    let mut last = 0u64;
    for slot in results {
        let (t, words) = slot.expect("every window resolved");
        outputs.extend(words);
        last = last.max(t);
    }
    let makespan = ticks_to_ns(last);
    Ok(ResumableOutcome {
        outcome: StreamOutcome {
            outputs,
            makespan,
            throughput: if makespan > 0.0 {
                vectors.len() as f64 / makespan
            } else {
                f64::INFINITY
            },
        },
        recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_netlist::Netlist;

    /// An input-paced XOR output, a free-running DFF counter output, and
    /// a constant output — every record source in one design, with state
    /// carried across window boundaries.
    fn mixed_netlist() -> PlNetlist {
        let mut n = Netlist::new("mixed");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_xor2(a, b).unwrap();
        let q0 = n.add_dff(false);
        let q1 = n.add_dff(false);
        let n0 = n.add_not(q0).unwrap();
        let t1 = n.add_xor2(q1, q0).unwrap();
        n.set_dff_input(q0, n0).unwrap();
        n.set_dff_input(q1, t1).unwrap();
        n.set_output("x", x);
        n.set_output("q1", q1);
        PlNetlist::from_sync(&n).unwrap()
    }

    fn test_vectors(count: usize, seed: u64) -> Vec<Vec<bool>> {
        let mut s = seed;
        (0..count)
            .map(|_| {
                (0..2)
                    .map(|_| {
                        s = s
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        s >> 63 == 1
                    })
                    .collect()
            })
            .collect()
    }

    fn baseline(pl: &PlNetlist, vecs: &[Vec<bool>]) -> StreamOutcome {
        PlSimulator::new(pl, DelayModel::default())
            .unwrap()
            .run_stream(vecs)
            .unwrap()
    }

    /// A per-test scratch directory, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let p = std::env::temp_dir().join(format!("pl_resume_{}_{tag}", std::process::id()));
            let _ = fs::remove_dir_all(&p);
            Self(p)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn fresh_sweep_matches_run_stream_across_jobs_and_windows() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let vecs = test_vectors(19, 0xC0FFEE);
        let expect = baseline(&pl, &vecs);
        for (window, jobs) in [(1, 2), (3, 2), (4, 4), (7, 3), (19, 2), (40, 8)] {
            let dir = TempDir::new(&format!("fresh_{window}_{jobs}"));
            let opts = ResumableOptions {
                window,
                jobs,
                ..ResumableOptions::default()
            };
            let got = sweep_resumable(&pl, &delays, &vecs, dir.path(), &opts).unwrap();
            assert_eq!(got.outcome, expect, "window={window} jobs={jobs} diverged");
            assert_eq!(got.recovery.windows, vecs.len().div_ceil(window));
            assert_eq!(got.recovery.replayed_from_journal, 0);
            assert!(got.recovery.worker_failures.is_empty());
            assert_eq!(got.recovery.degraded_windows, 0);
            assert!(got.recovery.corrupt_files.is_empty());
        }
    }

    #[test]
    fn completed_sweep_resumes_entirely_from_journal() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let vecs = test_vectors(12, 0xBEEF);
        let dir = TempDir::new("complete_resume");
        let opts = ResumableOptions {
            window: 4,
            jobs: 2,
            ..ResumableOptions::default()
        };
        let first = sweep_resumable(&pl, &delays, &vecs, dir.path(), &opts).unwrap();
        let again = sweep_resumable(
            &pl,
            &delays,
            &vecs,
            dir.path(),
            &ResumableOptions {
                resume: true,
                ..opts
            },
        )
        .unwrap();
        assert_eq!(again.outcome, first.outcome);
        assert_eq!(again.recovery.replayed_from_journal, 3);
        assert_eq!(again.recovery.restart_window, 3);
    }

    #[test]
    fn halt_at_boundary_then_resume_is_bit_identical() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let vecs = test_vectors(20, 0xDEAD);
        let expect = baseline(&pl, &vecs);
        let dir = TempDir::new("halt_resume");
        let opts = ResumableOptions {
            window: 3,
            jobs: 2,
            ..ResumableOptions::default()
        };
        let faults = FaultPlan::new();
        faults.halt_after_journal_appends(2);
        let err = sweep_resumable_with_faults(&pl, &delays, &vecs, dir.path(), &opts, &faults)
            .expect_err("the injected halt kills the run");
        assert!(
            matches!(err, SimError::CheckpointIo { ref path, .. } if path == "<fault-injection>"),
            "unexpected error: {err}"
        );
        let resumed = sweep_resumable(
            &pl,
            &delays,
            &vecs,
            dir.path(),
            &ResumableOptions {
                resume: true,
                ..opts
            },
        )
        .unwrap();
        assert_eq!(resumed.outcome, expect, "resume diverged from sequential");
        assert_eq!(resumed.recovery.replayed_from_journal, 2);
        assert!(resumed.recovery.restart_window >= 2);
    }

    #[test]
    fn corrupt_checkpoint_files_are_recorded_and_routed_around() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let vecs = test_vectors(20, 0xF00D);
        let expect = baseline(&pl, &vecs);
        let dir = TempDir::new("corrupt_ck");
        let opts = ResumableOptions {
            window: 3,
            jobs: 2,
            ..ResumableOptions::default()
        };
        let faults = FaultPlan::new();
        faults.halt_after_journal_appends(2);
        sweep_resumable_with_faults(&pl, &delays, &vecs, dir.path(), &opts, &faults)
            .expect_err("the injected halt kills the run");
        // First incomplete window is 2: truncate its boundary checkpoint
        // and byte-flip boundary 1's, forcing recovery back to a fresh
        // leader that re-feeds the journaled windows.
        let ck2 = ck_path(dir.path(), 2);
        let bytes = fs::read(&ck2).unwrap();
        fs::write(&ck2, &bytes[..7]).unwrap();
        let ck1 = ck_path(dir.path(), 1);
        let mut bytes = fs::read(&ck1).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xA5;
        fs::write(&ck1, bytes).unwrap();
        let resumed = sweep_resumable(
            &pl,
            &delays,
            &vecs,
            dir.path(),
            &ResumableOptions {
                resume: true,
                ..opts
            },
        )
        .unwrap();
        assert_eq!(resumed.outcome, expect, "recovery diverged from sequential");
        assert_eq!(resumed.recovery.restart_window, 0);
        assert_eq!(
            resumed.recovery.corrupt_files.len(),
            2,
            "both damaged files must be reported: {:?}",
            resumed.recovery.corrupt_files
        );
    }

    #[test]
    fn torn_journal_tail_is_truncated_and_reported() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let vecs = test_vectors(20, 0x7EA);
        let expect = baseline(&pl, &vecs);
        let dir = TempDir::new("torn_tail");
        let opts = ResumableOptions {
            window: 3,
            jobs: 2,
            ..ResumableOptions::default()
        };
        let faults = FaultPlan::new();
        faults.halt_after_journal_appends(3);
        sweep_resumable_with_faults(&pl, &delays, &vecs, dir.path(), &opts, &faults)
            .expect_err("the injected halt kills the run");
        // Simulate a kill mid-append: garbage where the next frame starts.
        let journal = dir.path().join("journal.bin");
        let mut bytes = fs::read(&journal).unwrap();
        bytes.extend_from_slice(&[0x99, 0x07, 0x13]);
        fs::write(&journal, bytes).unwrap();
        let resumed = sweep_resumable(
            &pl,
            &delays,
            &vecs,
            dir.path(),
            &ResumableOptions {
                resume: true,
                ..opts
            },
        )
        .unwrap();
        assert_eq!(resumed.outcome, expect);
        assert_eq!(resumed.recovery.replayed_from_journal, 3);
        assert_eq!(resumed.recovery.corrupt_files.len(), 1);
        assert!(
            resumed.recovery.corrupt_files[0].contains("torn journal tail"),
            "{:?}",
            resumed.recovery.corrupt_files
        );
    }

    #[test]
    fn panicked_worker_window_is_retried_and_stays_identical() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let vecs = test_vectors(20, 0x9A1C);
        let expect = baseline(&pl, &vecs);
        let dir = TempDir::new("retry");
        let opts = ResumableOptions {
            window: 3,
            jobs: 4,
            max_retries: 2,
            ..ResumableOptions::default()
        };
        let faults = FaultPlan::new();
        faults.panic_on_window(1, 1);
        faults.panic_on_window(4, 1);
        let got = sweep_resumable_with_faults(&pl, &delays, &vecs, dir.path(), &opts, &faults)
            .expect("retries absorb the injected panics");
        assert_eq!(got.outcome, expect);
        assert!(got.recovery.retried_windows >= 1, "{}", got.recovery);
        assert!(got.recovery.worker_failures.is_empty(), "{}", got.recovery);
        assert_eq!(got.recovery.degraded_windows, 0);
    }

    /// The retry of a panicked window must never be stranded by a
    /// surviving worker that found the queue empty and left while the
    /// panicking attempt was still in flight.
    #[test]
    fn panicked_worker_retry_is_never_lost_across_repeats() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let vecs = test_vectors(20, 0x9A1C);
        let expect = baseline(&pl, &vecs);
        let opts = ResumableOptions {
            window: 3,
            jobs: 4,
            max_retries: 2,
            ..ResumableOptions::default()
        };
        for rep in 0..100 {
            let dir = TempDir::new(&format!("retry_repeat_{rep}"));
            let faults = FaultPlan::new();
            faults.panic_on_window(1, 1);
            faults.panic_on_window(4, 1);
            let got = sweep_resumable_with_faults(&pl, &delays, &vecs, dir.path(), &opts, &faults)
                .expect("retries absorb the injected panics");
            assert_eq!(got.outcome, expect, "repeat {rep} diverged");
            assert_eq!(
                got.recovery.degraded_windows, 0,
                "repeat {rep}: {}",
                got.recovery
            );
            assert!(got.recovery.worker_failures.is_empty(), "repeat {rep}");
        }
    }

    #[test]
    fn exhausted_retries_degrade_in_process_not_swallowed() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let vecs = test_vectors(20, 0xDE6);
        let expect = baseline(&pl, &vecs);
        let dir = TempDir::new("degrade");
        let opts = ResumableOptions {
            window: 3,
            jobs: 4,
            max_retries: 1,
            ..ResumableOptions::default()
        };
        let faults = FaultPlan::new();
        faults.panic_on_window(2, u32::MAX);
        let got = sweep_resumable_with_faults(&pl, &delays, &vecs, dir.path(), &opts, &faults)
            .expect("the degraded window still completes in-process");
        assert_eq!(got.outcome, expect, "degraded run diverged");
        assert_eq!(got.recovery.degraded_windows, 1);
        assert_eq!(got.recovery.worker_failures.len(), 1);
        let failure = &got.recovery.worker_failures[0];
        assert_eq!(failure.window, 2);
        assert!(
            failure.message.contains("injected fault"),
            "the real panic payload must be reported, got: {}",
            failure.message
        );
    }

    #[test]
    fn fresh_run_refuses_a_directory_holding_a_sweep() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let vecs = test_vectors(6, 0x11);
        let dir = TempDir::new("refuse_reuse");
        let opts = ResumableOptions {
            window: 2,
            jobs: 2,
            ..ResumableOptions::default()
        };
        sweep_resumable(&pl, &delays, &vecs, dir.path(), &opts).unwrap();
        let err = sweep_resumable(&pl, &delays, &vecs, dir.path(), &opts)
            .expect_err("a second fresh run must refuse the directory");
        assert!(matches!(err, SimError::CheckpointIo { .. }), "{err}");
        assert!(err.to_string().contains("already holds a sweep"), "{err}");
    }

    #[test]
    fn resume_mismatch_is_typed_per_field() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let vecs = test_vectors(8, 0x22);
        let dir = TempDir::new("mismatch");
        let opts = ResumableOptions {
            window: 2,
            jobs: 2,
            ..ResumableOptions::default()
        };
        sweep_resumable(&pl, &delays, &vecs, dir.path(), &opts).unwrap();
        let resume = ResumableOptions {
            resume: true,
            ..opts.clone()
        };
        // Different vectors, same count -> stream digest.
        let other = test_vectors(8, 0x33);
        match sweep_resumable(&pl, &delays, &other, dir.path(), &resume) {
            Err(SimError::ResumeMismatch { field, .. }) => {
                assert_eq!(field, "vector stream digest");
            }
            other => panic!("expected a resume mismatch, got {other:?}"),
        }
        // Different window size.
        match sweep_resumable(
            &pl,
            &delays,
            &vecs,
            dir.path(),
            &ResumableOptions {
                window: 3,
                ..resume.clone()
            },
        ) {
            Err(SimError::ResumeMismatch { field, .. }) => assert_eq!(field, "window size"),
            other => panic!("expected a resume mismatch, got {other:?}"),
        }
        // Different delay model.
        match sweep_resumable(&pl, &delays.scaled(2.0), &vecs, dir.path(), &resume) {
            Err(SimError::ResumeMismatch { field, .. }) => {
                assert_eq!(field, "delay model digest");
            }
            other => panic!("expected a resume mismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_meta_is_a_fatal_typed_error() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let vecs = test_vectors(8, 0x44);
        let dir = TempDir::new("corrupt_meta");
        let opts = ResumableOptions {
            window: 2,
            jobs: 2,
            ..ResumableOptions::default()
        };
        sweep_resumable(&pl, &delays, &vecs, dir.path(), &opts).unwrap();
        let resume = ResumableOptions {
            resume: true,
            ..opts
        };
        let meta = dir.path().join("sweep.meta");
        let pristine = fs::read(&meta).unwrap();
        // Truncation.
        fs::write(&meta, &pristine[..10]).unwrap();
        match sweep_resumable(&pl, &delays, &vecs, dir.path(), &resume) {
            Err(SimError::CheckpointTruncated { .. }) => {}
            other => panic!("expected a truncation error, got {other:?}"),
        }
        // A flipped payload byte past the version field.
        let mut flipped = pristine.clone();
        flipped[20] ^= 0x40;
        fs::write(&meta, &flipped).unwrap();
        match sweep_resumable(&pl, &delays, &vecs, dir.path(), &resume) {
            Err(SimError::CheckpointChecksum { section, .. }) => {
                assert_eq!(section, "sweep.meta");
            }
            other => panic!("expected a checksum error, got {other:?}"),
        }
        // Foreign magic.
        let mut alien = pristine.clone();
        alien[..8].copy_from_slice(b"NOTMETA!");
        fs::write(&meta, &alien).unwrap();
        match sweep_resumable(&pl, &delays, &vecs, dir.path(), &resume) {
            Err(SimError::CheckpointBadMagic { .. }) => {}
            other => panic!("expected a bad-magic error, got {other:?}"),
        }
        // Version skew (with the CRC repaired so only the version differs).
        let mut skew = pristine;
        skew[8..12].copy_from_slice(&2u32.to_le_bytes());
        let end = skew.len() - 4;
        let crc = crc32(&skew[..end]);
        skew[end..].copy_from_slice(&crc.to_le_bytes());
        fs::write(&meta, &skew).unwrap();
        match sweep_resumable(&pl, &delays, &vecs, dir.path(), &resume) {
            Err(SimError::CheckpointVersionSkew {
                found: 2,
                supported: META_VERSION,
            }) => {}
            other => panic!("expected version skew, got {other:?}"),
        }
    }

    #[test]
    fn empty_stream_completes_with_zero_windows() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let dir = TempDir::new("empty");
        let got =
            sweep_resumable(&pl, &delays, &[], dir.path(), &ResumableOptions::default()).unwrap();
        assert!(got.outcome.outputs.is_empty());
        assert_eq!(got.outcome.makespan, 0.0);
        assert_eq!(got.recovery.windows, 0);
        let expect = baseline(&pl, &[]);
        assert_eq!(got.outcome, expect);
    }

    #[test]
    fn recovery_display_is_human_readable() {
        let r = SweepRecovery {
            windows: 7,
            replayed_from_journal: 3,
            restart_window: 3,
            retried_windows: 1,
            worker_failures: vec![WindowFailure {
                window: 5,
                attempts: 3,
                message: "boom".into(),
            }],
            degraded_windows: 1,
            corrupt_files: vec!["x.ck: bad".into()],
        };
        let s = r.to_string();
        assert!(s.contains("7 windows"), "{s}");
        assert!(s.contains("1 degraded"), "{s}");
    }
}
