//! Crash-resumable streamed runs: the sequential
//! [`PlSimulator::run_stream`] fed one window at a time, with a
//! checkpoint at every window boundary and a journal of completed windows
//! — pinned bit-identical to an uninterrupted `run_stream`.
//!
//! # The run
//!
//! [`sweep_resumable`] feeds the stream window by window through
//! [`PlSimulator::feed_vector`]. At each window boundary it collects every
//! fed window whose output words are already complete in the record
//! queues. Collecting never runs an event, and records are write-only to
//! the event schedule, so it cannot change the run. Each collected window
//! is appended to the journal, and only then is the boundary checkpoint
//! written. After the last window the run drains through the same
//! completion step as `run_stream`.
//!
//! # On-disk layout
//!
//! [`sweep_resumable`] owns one directory per sweep:
//!
//! | file | contents |
//! |------|----------|
//! | `sweep.meta` | run identity: magic `PLSWMETA`, format version, netlist fingerprint, delay-model digest, vector-stream digest, window size, vector count, trailing CRC32 |
//! | `journal.bin` | append-only completed-window log, in window order; each entry is `len:u32 \| payload \| crc32(payload):u32` with payload `window:u64, last_tick:u64, n_words:u64, width:u64, words as 0/1 bytes` |
//! | `window-{k:08}.ck` | the [`crate::SimCheckpoint`] wire encoding ([`crate::checkpoint::wire`]) of the run after feeding windows `0..k`, for `k >= 1` (boundary 0 is the fresh simulator — no file needed); its [`SimCheckpoint::rounds`] is the number of words already in the journal |
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
//! [`SimError::ResumeMismatch`], and reads the journal as an in-order
//! prefix of windows `0..F`. It then restores the newest decodable
//! checkpoint whose `rounds()` is at most `F * window` (a newer one whose
//! journal entries were lost with a torn tail is skipped), or starts from
//! boundary 0 if there is none. Windows the journal already holds are
//! re-collected but not re-appended. A corrupt or unreadable
//! `window-k.ck` is recorded in [`SweepRecovery::corrupt_files`] and
//! routed around, never trusted: the wire format's digests and CRCs
//! decide, so resumption is correct even if every checkpoint file was
//! byte-flipped.
//!
//! Memory note: a checkpoint holds only the output words not yet in the
//! journal — the windows still in flight at that boundary, not every word
//! recorded so far — so run memory and each `window-k.ck` stay bounded
//! by the pipeline depth, however long the stream. (An output with no
//! primary input in its cone, such as a free-running counter, can record
//! rounds ahead of the fed vectors; those records stay queued like in
//! `run_stream`.)

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, Ordering};

use pl_core::PlNetlist;

use crate::checkpoint::wire::{crc32, delay_digest, Reader};
use crate::checkpoint::{netlist_fingerprint, Fnv64, SimCheckpoint};
use crate::delay::{ticks_to_ns, DelayModel};
use crate::engine::{PlSimulator, StreamOutcome};
use crate::error::SimError;

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
    /// `true` resumes an interrupted sweep already in the directory;
    /// `false` starts fresh and refuses a directory that has one.
    pub resume: bool,
}

impl Default for ResumableOptions {
    fn default() -> Self {
        Self {
            window: 64,
            resume: false,
        }
    }
}

/// What recovery did during a [`sweep_resumable`] run — the run's
/// outputs are bit-identical regardless, this is the audit trail.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SweepRecovery {
    /// Total windows in the sweep.
    pub windows: usize,
    /// Windows whose results were taken from the journal (0 on a fresh
    /// run).
    pub replayed_from_journal: usize,
    /// The checkpoint boundary the run restarted from (equals `windows`
    /// when the journal was already complete).
    pub restart_window: usize,
    /// Corrupt or unreadable recovery files that were detected and
    /// routed around (`path: error` strings).
    pub corrupt_files: Vec<String>,
}

impl fmt::Display for SweepRecovery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} windows, {} from journal, restart at {}, {} corrupt files",
            self.windows,
            self.replayed_from_journal,
            self.restart_window,
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
    /// What recovery happened along the way.
    pub recovery: SweepRecovery,
}

/// Fault-injection hooks for [`sweep_resumable_with_faults`] — the
/// corruption harness's way to halt runs at adversarial points. A
/// default-constructed plan injects nothing.
#[derive(Debug)]
pub struct FaultPlan {
    /// Remaining successful journal appends before the injected halt
    /// (-1 = disabled).
    halt_after: AtomicI64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
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

    /// Halts the run with a typed I/O error just before the `(n+1)`-th
    /// journal append — simulating a kill at a window boundary, after
    /// `n` windows durably completed.
    pub fn halt_after_journal_appends(&self, n: u64) {
        self.halt_after
            .store(i64::try_from(n).unwrap_or(i64::MAX), Ordering::SeqCst);
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

/// The shape every journal entry must decode into — anything else,
/// including an entry out of window order, is treated as the torn tail
/// of a killed append.
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

/// Parses one `len | payload | crc` frame, which must hold window
/// `expected`. `None` means "malformed from here on" — the caller
/// truncates the tail.
fn parse_entry(
    bytes: &[u8],
    shape: &JournalShape,
    expected: usize,
) -> Option<(usize, JournalEntry)> {
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
    if window != expected
        || window >= shape.n_windows
        || width != shape.width
        || n_words != shape.words_in(window)
    {
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
    Some((8 + len, JournalEntry { last_tick, words }))
}

/// Replays `journal.bin`: returns the completed windows `0..F` in order
/// and, if a torn tail was found, truncates it away (so the next append
/// lands on a clean frame boundary) and reports it as a note for
/// [`SweepRecovery::corrupt_files`].
fn scan_journal(
    path: &Path,
    shape: &JournalShape,
) -> Result<(Vec<JournalEntry>, Option<String>), SimError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), None)),
        Err(e) => return Err(io_err(path, &e)),
    };
    let mut completed = Vec::new();
    let mut pos = 0usize;
    let mut note = None;
    while pos < bytes.len() {
        match parse_entry(&bytes[pos..], shape, completed.len()) {
            Some((consumed, entry)) => {
                completed.push(entry);
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

/// Restores into `sim` the newest decodable checkpoint whose `rounds()`
/// is at most `max_rounds` and returns its boundary, or 0 (the fresh
/// simulator) if there is none. Unreadable or corrupt files are recorded
/// in `corrupt` and skipped.
fn restore_newest(
    sim: &mut PlSimulator<'_>,
    dir: &Path,
    delays: &DelayModel,
    n_windows: usize,
    max_rounds: u64,
    corrupt: &mut Vec<String>,
) -> Result<usize, SimError> {
    for k in (1..n_windows).rev() {
        let path = ck_path(dir, k);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => {
                corrupt.push(format!("{}: {e}", path.display()));
                continue;
            }
        };
        match SimCheckpoint::from_bytes(&bytes, sim.pl, delays) {
            Ok(ck) if ck.rounds() <= max_rounds => {
                sim.restore(&ck)?;
                return Ok(k);
            }
            // Newer than the journal: its windows were lost with a torn
            // journal tail, so an older boundary must re-collect them.
            Ok(_) => {}
            Err(e) => corrupt.push(format!("{}: {e}", path.display())),
        }
    }
    Ok(0)
}

/// Collects window `k` — `len` output words — through the stream's
/// completion step and appends it to the journal, unless the journal
/// already holds it (a resumed run re-collects the windows between its
/// restart checkpoint and the end of the journal).
fn collect_window(
    sim: &mut PlSimulator<'_>,
    k: usize,
    len: usize,
    done: &mut Vec<JournalEntry>,
    journal: &mut Journal,
    faults: &FaultPlan,
) -> Result<(), SimError> {
    let mut last_tick = 0;
    let words = (0..len)
        .map(|_| sim.complete_word(&mut last_tick))
        .collect::<Result<Vec<_>, _>>()?;
    if let Some(entry) = done.get(k) {
        debug_assert!(
            entry.last_tick == last_tick && entry.words == words,
            "window {k} re-collected differently from its journal entry"
        );
        return Ok(());
    }
    journal.append(faults, k, last_tick, &words)?;
    done.push(JournalEntry { last_tick, words });
    Ok(())
}

/// Runs one long vector stream as a crash-resumable streamed run (see
/// the [module docs](self) for the run, the on-disk layout and the
/// recovery rules). The returned outputs, makespan, and throughput are
/// **bit-identical to [`PlSimulator::run_stream`]** for every window
/// size, across kills, resumes and corrupt checkpoint files.
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
/// * Any simulation error ([`SimError::Deadlock`], ...) that
///   [`PlSimulator::run_stream`] would also report.
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
    let window = opts.window;
    assert!(window > 0, "window must be at least 1");
    fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
    let meta_path = dir.join("sweep.meta");
    let meta = MetaFields {
        fingerprint: netlist_fingerprint(pl),
        delay_digest: delay_digest(delays),
        vectors_digest: vectors_digest(vectors),
        window: window as u64,
        n_vectors: vectors.len() as u64,
    };
    let n_windows = vectors.len().div_ceil(window);
    let mut recovery = SweepRecovery {
        windows: n_windows,
        ..SweepRecovery::default()
    };

    // Completed windows, in order: the journal's prefix on resume, then
    // every window this run collects.
    let mut done: Vec<JournalEntry> = Vec::with_capacity(n_windows);

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
            window_len: window,
            n_vectors: vectors.len(),
            width: pl.output_gates().len(),
        };
        let (completed, note) = scan_journal(&dir.join("journal.bin"), &shape)?;
        recovery.replayed_from_journal = completed.len();
        if let Some(n) = note {
            recovery.corrupt_files.push(n);
        }
        done = completed;
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

    if done.len() < n_windows {
        let mut sim = PlSimulator::new(pl, delays.clone())?;
        let restart = restore_newest(
            &mut sim,
            dir,
            delays,
            n_windows,
            (done.len() * window) as u64,
            &mut recovery.corrupt_files,
        )?;
        recovery.restart_window = restart;

        let chunks: Vec<&[Vec<bool>]> = vectors.chunks(window).collect();
        let mut journal = Journal::open_append(dir.join("journal.bin"))?;
        // Every collected window is whole: only the last may be short,
        // and it is collected after the last checkpoint.
        let mut collected = sim.rounds() as usize / window;
        for (k, chunk) in chunks.iter().enumerate().skip(restart) {
            for v in *chunk {
                sim.feed_vector(v)?;
            }
            // Collect every fed window already recorded in full; no
            // event runs, so the schedule is exactly `run_stream`'s.
            while collected <= k && sim.ready_words() >= chunks[collected].len() {
                collect_window(
                    &mut sim,
                    collected,
                    chunks[collected].len(),
                    &mut done,
                    &mut journal,
                    faults,
                )?;
                collected += 1;
            }
            if k + 1 < n_windows {
                write_atomic(&ck_path(dir, k + 1), &sim.snapshot().to_bytes(delays))?;
            }
        }
        // Drain the windows still in flight, exactly as `run_stream` does.
        for (k, chunk) in chunks.iter().enumerate().skip(collected) {
            collect_window(&mut sim, k, chunk.len(), &mut done, &mut journal, faults)?;
        }
    } else {
        recovery.restart_window = n_windows;
    }

    let mut outputs = Vec::with_capacity(vectors.len());
    let mut last = 0u64;
    for entry in done {
        outputs.extend(entry.words);
        last = last.max(entry.last_tick);
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
pub(super) mod tests {
    use super::*;
    use pl_netlist::Netlist;

    /// An input-paced XOR output, a free-running DFF counter output (it
    /// can record rounds ahead of the fed vectors), and a constant output
    /// (recorded at feed time, not by a gate firing) — every record source
    /// in one design, with state carried across window boundaries.
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
        let c = n.add_const(true);
        n.set_output("x", x);
        n.set_output("q1", q1);
        n.set_output("k", c);
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
    pub(crate) struct TempDir(PathBuf);

    impl TempDir {
        pub(crate) fn new(tag: &str) -> Self {
            let p = std::env::temp_dir().join(format!("pl_resume_{}_{tag}", std::process::id()));
            let _ = fs::remove_dir_all(&p);
            Self(p)
        }

        pub(crate) fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn fresh_sweep_matches_run_stream_across_windows() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let vecs = test_vectors(19, 0xC0FFEE);
        let expect = baseline(&pl, &vecs);
        for window in [1, 2, 3, 4, 7, 19, 40] {
            let dir = TempDir::new(&format!("fresh_{window}"));
            let opts = ResumableOptions {
                window,
                ..ResumableOptions::default()
            };
            let got = sweep_resumable(&pl, &delays, &vecs, dir.path(), &opts).unwrap();
            assert_eq!(got.outcome, expect, "window={window} diverged");
            assert_eq!(got.recovery.windows, vecs.len().div_ceil(window));
            assert_eq!(got.recovery.replayed_from_journal, 0);
            assert_eq!(got.recovery.restart_window, 0);
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
            ..ResumableOptions::default()
        };
        let faults = FaultPlan::new();
        faults.halt_after_journal_appends(2);
        sweep_resumable_with_faults(&pl, &delays, &vecs, dir.path(), &opts, &faults)
            .expect_err("the injected halt kills the run");
        // Damage every checkpoint the killed run wrote — truncate the
        // even boundaries, byte-flip the odd ones — forcing recovery back
        // to a fresh simulator that re-collects the journaled windows.
        let written: Vec<PathBuf> = (1..vecs.len().div_ceil(3))
            .map(|k| ck_path(dir.path(), k))
            .filter(|p| p.exists())
            .collect();
        assert!(written.len() >= 2, "the killed run wrote {written:?}");
        for (i, ck) in written.iter().enumerate() {
            let mut bytes = fs::read(ck).unwrap();
            if i % 2 == 0 {
                bytes.truncate(7);
            } else {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xA5;
            }
            fs::write(ck, bytes).unwrap();
        }
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
            written.len(),
            "every damaged file must be reported: {:?}",
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

    /// A journal that lost whole entries (cut at a frame boundary) leaves
    /// checkpoints newer than its prefix: they must be skipped — not
    /// reported corrupt — in favour of an older boundary that re-collects
    /// the lost windows.
    #[test]
    fn checkpoint_newer_than_the_journal_is_skipped() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let vecs = test_vectors(20, 0x5EC0);
        let expect = baseline(&pl, &vecs);
        let dir = TempDir::new("newer_ck");
        let opts = ResumableOptions {
            window: 3,
            ..ResumableOptions::default()
        };
        let faults = FaultPlan::new();
        faults.halt_after_journal_appends(3);
        sweep_resumable_with_faults(&pl, &delays, &vecs, dir.path(), &opts, &faults)
            .expect_err("the injected halt kills the run");
        let newest = (1..7)
            .rev()
            .find(|&k| ck_path(dir.path(), k).exists())
            .unwrap();
        // Keep only the first journal frame (`len | payload | crc`).
        let journal = dir.path().join("journal.bin");
        let bytes = fs::read(&journal).unwrap();
        let first = 8 + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        fs::write(&journal, &bytes[..first]).unwrap();
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
        assert_eq!(resumed.recovery.replayed_from_journal, 1);
        assert!(
            resumed.recovery.restart_window < newest,
            "restarted at {} although window-{newest}.ck is past the journal",
            resumed.recovery.restart_window
        );
        assert!(resumed.recovery.corrupt_files.is_empty());
    }

    #[test]
    fn fresh_run_refuses_a_directory_holding_a_sweep() {
        let pl = mixed_netlist();
        let delays = DelayModel::default();
        let vecs = test_vectors(6, 0x11);
        let dir = TempDir::new("refuse_reuse");
        let opts = ResumableOptions {
            window: 2,
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
            corrupt_files: vec!["x.ck: bad".into()],
        };
        let s = r.to_string();
        assert!(s.contains("7 windows"), "{s}");
        assert!(s.contains("restart at 3"), "{s}");
        assert!(s.contains("1 corrupt files"), "{s}");
    }
}
