//! Versioned, checksummed byte serialization for [`SimCheckpoint`] —
//! the on-disk form behind crash-resumable sweeps
//! ([`crate::parallel::sweep_resumable`]).
//!
//! Hand-rolled (no serde, per the workspace's no-registry-dependency
//! constraint) and **paranoid by construction**: decoding untrusted bytes
//! returns a typed [`SimError`] for every corruption class — truncation,
//! bad magic, version skew, digest mismatch, checksum failure,
//! out-of-range indices — and never panics or silently misdecodes.
//!
//! # Format layout (version 3)
//!
//! All integers are little-endian. The file is:
//!
//! | bytes | field |
//! |---|---|
//! | 8 | magic `b"PLSIMCK\0"` |
//! | 4 | format version (`u32`, currently 3) |
//! | … | sections (below), in fixed order |
//! | 4 | trailer CRC32 over **every preceding byte** |
//!
//! Each section is framed as `tag: u8`, `len: u64` (payload bytes),
//! payload, `crc32(payload): u32`. Sections, in order:
//!
//! | tag | section | payload |
//! |---|---|---|
//! | 10 | `HEADER` | netlist fingerprint `u64`, delay-model digest `u64`, gate count `u64` |
//! | 7 | `CURSOR` | vectors fed, next start tick, latest output tick, latest delivery tick (`u64`×4); drain point and last completion (each a presence byte, then a `u64` if present); pending error (`u8` 0 = none, 1 = unsound trigger, 2 = safety violation; if present its tick `u64` and master gate or arc `u32`); missing outputs (presence byte; if present a count `u64` and that many ascending output slots `u32`) |
//! | 8 | `GATES` | per gate the tick of its last firing `u64`, then per gate the value of its last output token (0/1 byte) |
//! | 9 | `MASTERS` | count `u64` (the netlist's early-evaluation masters), then per master in ascending gate order: gate `u32`, last `Produce` tick `u64`, acknowledge consumer delay `u64` |
//!
//! A file holds only the state live at a round boundary (see
//! [`crate::checkpoint`]), so its size depends on the netlist alone: it is
//! the same at every window boundary of a run without errors.
//!
//! The trailer CRC32 covers the whole file, so **any** single byte flip
//! (a burst error of ≤ 32 bits) is guaranteed to be rejected; the
//! per-section CRCs localize the diagnosis. Semantic validation happens
//! after the checksums: the header digests bind the bytes to one specific
//! netlist (arc-topology fingerprint) and delay model, every gate, arc
//! and output index is range-checked, masters must be exactly the
//! netlist's, and every byte-valued field must be in its domain.
//!
//! # Version-evolution rules
//!
//! * The magic never changes; the version integer is bumped for **any**
//!   layout change (new/removed/reordered sections or fields, changed
//!   widths or tag values). There are no minor versions and no in-place
//!   extension points — checkpoints are short-lived operational state,
//!   not archives, so the decoder supports exactly one version and
//!   rejects everything else with [`SimError::CheckpointVersionSkew`].
//!   Versions 1 and 2 stored the event engine's queue, one per lane
//!   width; a sweep meeting such a file records it as unreadable and
//!   falls back to an older boundary.
//! * Section tags are never reused for different content across versions
//!   (tags 1–6 belonged to versions 1 and 2), so a misversioned decode
//!   attempt fails structurally even if the version field itself was the
//!   corrupted byte (the trailer CRC catches that case first anyway).

use pl_core::{PlArcId, PlGateId, PlNetlist};
use pl_netlist::Fnv64;

use crate::checkpoint::{netlist_fingerprint, MasterState, SimCheckpoint};
use crate::delay::DelayModel;
use crate::error::SimError;
use crate::lane::LaneWord;
use crate::schedule::Cursor;

/// First eight bytes of every serialized checkpoint.
pub const MAGIC: [u8; 8] = *b"PLSIMCK\0";

/// The wire-format version this build writes and reads.
pub const VERSION: u32 = 3;

// Section tags (never reused across versions).
const SEC_HEADER: (u8, &str) = (10, "HEADER");
const SEC_CURSOR: (u8, &str) = (7, "CURSOR");
const SEC_GATES: (u8, &str) = (8, "GATES");
const SEC_MASTERS: (u8, &str) = (9, "MASTERS");

/// CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the checksum
/// of every section and of the whole file, and of every `pld` protocol
/// frame. Detects all burst errors of ≤ 32 bits, hence every single-byte
/// corruption.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut k = 0;
            while k < 8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                k += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// FNV-1a digest of a [`DelayModel`] (the bit patterns of its five
/// components) — binds a checkpoint to the exact delay model, since the
/// quantized ticks it stores depend on it.
#[must_use]
pub(crate) fn delay_digest(delays: &DelayModel) -> u64 {
    let mut h = Fnv64::new();
    for x in [
        delays.c_element,
        delays.lut,
        delays.latch,
        delays.wire,
        delays.ee_overhead,
    ] {
        h.mix(x.to_bits());
    }
    h.finish()
}

/// A bounds-checked cursor over untrusted bytes: every read states what
/// it was reading so truncation errors are self-describing.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SimError> {
        if n > self.remaining() {
            return Err(SimError::CheckpointTruncated {
                context,
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self, context: &'static str) -> Result<u8, SimError> {
        Ok(self.take(1, context)?[0])
    }

    pub(crate) fn u32(&mut self, context: &'static str) -> Result<u32, SimError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self, context: &'static str) -> Result<u64, SimError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    /// A length/count field about to drive reads or allocation: bounds it
    /// by the bytes actually remaining (assuming `min_item_bytes` per
    /// item) so a corrupted count can neither over-allocate nor walk past
    /// the buffer.
    pub(crate) fn count(
        &mut self,
        min_item_bytes: usize,
        field: &'static str,
    ) -> Result<usize, SimError> {
        let raw = self.u64(field)?;
        let limit = (self.remaining() / min_item_bytes.max(1)) as u64;
        if raw > limit {
            return Err(SimError::CheckpointOutOfRange {
                field,
                value: raw,
                limit,
            });
        }
        // `raw <= limit <= remaining()` so this cannot fail on any
        // target, but keep the conversion checked rather than a bare
        // `as` cast: on a 32-bit usize a future bound change must fail
        // typed, never truncate.
        usize::try_from(raw).map_err(|_| SimError::CheckpointOutOfRange {
            field,
            value: raw,
            limit,
        })
    }

    pub(crate) fn expect_end(&self, field: &'static str) -> Result<(), SimError> {
        if self.remaining() != 0 {
            return Err(SimError::CheckpointOutOfRange {
                field,
                value: self.remaining() as u64,
                limit: 0,
            });
        }
        Ok(())
    }
}

/// Frames `payload` as a section: tag, length, payload, payload CRC32.
pub(crate) fn push_section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Reads one section frame, checks its tag and CRC, returns the payload.
pub(crate) fn read_section<'a>(
    r: &mut Reader<'a>,
    (tag, name): (u8, &'static str),
) -> Result<&'a [u8], SimError> {
    let found = r.u8(name)?;
    if found != tag {
        return Err(SimError::CheckpointOutOfRange {
            field: "section tag",
            value: u64::from(found),
            limit: u64::from(tag),
        });
    }
    // The length is bounded by the remaining bytes minus the 4-byte CRC
    // *in u64 space*: narrowing to usize first would truncate lengths
    // like `1 << 32` to 0 on 32-bit targets and sail past this check.
    let len = r.u64(name)?;
    let avail = r.remaining().saturating_sub(4) as u64;
    if len > avail {
        return Err(SimError::CheckpointTruncated {
            context: name,
            needed: usize::try_from(len).map_or(usize::MAX, |l| l.saturating_add(4)),
            available: r.remaining(),
        });
    }
    // Bounded by `remaining()` (a usize), so the narrowing is exact.
    let len = len as usize;
    let payload = r.take(len, name)?;
    let stored = r.u32(name)?;
    let computed = crc32(payload);
    if stored != computed {
        return Err(SimError::CheckpointChecksum {
            section: name,
            stored,
            computed,
        });
    }
    Ok(payload)
}

fn push_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn push_opt(out: &mut Vec<u8>, x: Option<u64>) {
    match x {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            push_u64(out, x);
        }
    }
}

fn read_opt(r: &mut Reader<'_>, field: &'static str) -> Result<Option<u64>, SimError> {
    match r.u8(field)? {
        0 => Ok(None),
        1 => Ok(Some(r.u64(field)?)),
        other => Err(out_of_range(field, u64::from(other), 1)),
    }
}

fn out_of_range(field: &'static str, value: u64, limit: u64) -> SimError {
    SimError::CheckpointOutOfRange {
        field,
        value,
        limit,
    }
}

impl SimCheckpoint {
    /// Serializes this checkpoint to the versioned, CRC-protected wire
    /// format described in the [module docs](self). `delays` must be the
    /// delay model the snapshotted schedule ran with — its digest is
    /// embedded so [`SimCheckpoint::from_bytes`] can refuse to resume
    /// under a different model (the stored ticks would silently disagree
    /// otherwise).
    #[must_use]
    pub fn to_bytes(&self, delays: &DelayModel) -> Vec<u8> {
        let gates = self.last.len();
        let mut out = Vec::with_capacity(160 + gates * 9 + self.masters.len() * 20);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());

        let mut p = Vec::with_capacity(gates * 9);
        for x in [self.fingerprint, delay_digest(delays), gates as u64] {
            push_u64(&mut p, x);
        }
        push_section(&mut out, SEC_HEADER.0, &p);

        p.clear();
        let c = &self.cursor;
        for x in [c.fed, c.start, c.last, self.latest] {
            push_u64(&mut p, x);
        }
        push_opt(&mut p, c.drained_to);
        push_opt(&mut p, c.completed_last);
        match &c.first {
            None => p.push(0),
            Some((tick, e)) => {
                let (tag, index) = match e {
                    SimError::UnsoundTrigger { master } => (1, master.index()),
                    SimError::SafetyViolation { arc, .. } => (2, arc.index()),
                    other => unreachable!("a stream notes no {other}"),
                };
                p.push(tag);
                push_u64(&mut p, *tick);
                p.extend_from_slice(&(index as u32).to_le_bytes());
            }
        }
        match &c.missing {
            None => p.push(0),
            Some(slots) => {
                p.push(1);
                push_u64(&mut p, slots.len() as u64);
                for s in slots {
                    p.extend_from_slice(&s.to_le_bytes());
                }
            }
        }
        push_section(&mut out, SEC_CURSOR.0, &p);

        p.clear();
        for &t in &self.last {
            push_u64(&mut p, t);
        }
        for &v in &self.values {
            v.to_wire(&mut p);
        }
        push_section(&mut out, SEC_GATES.0, &p);

        p.clear();
        push_u64(&mut p, self.masters.len() as u64);
        for m in &self.masters {
            p.extend_from_slice(&m.gate.to_le_bytes());
            push_u64(&mut p, m.produced);
            push_u64(&mut p, m.ack_delay);
        }
        push_section(&mut out, SEC_MASTERS.0, &p);

        out.extend_from_slice(&crc32(&out).to_le_bytes());
        out
    }

    /// Decodes a checkpoint from `bytes`, validating it end to end
    /// against the netlist and delay model it will be resumed under.
    ///
    /// The checks run cheapest-and-most-global first: magic, version,
    /// whole-file CRC (so any single byte flip is rejected before any
    /// structure is trusted), then per-section CRCs, then the header
    /// digests binding the bytes to `pl` and `delays`, then field-level
    /// range validation. Decoding never panics and never allocates more
    /// than the byte length supports, whatever the input.
    ///
    /// # Errors
    ///
    /// [`SimError::CheckpointTruncated`], [`SimError::CheckpointBadMagic`],
    /// [`SimError::CheckpointVersionSkew`] (any version but
    /// [`VERSION`], the event engine's versions 1 and 2 included),
    /// [`SimError::CheckpointChecksum`],
    /// [`SimError::CheckpointDigestMismatch`] (wrong netlist, delay model,
    /// or gate count), and [`SimError::CheckpointOutOfRange`] (indices,
    /// counts or byte fields outside their domain).
    pub fn from_bytes(bytes: &[u8], pl: &PlNetlist, delays: &DelayModel) -> Result<Self, SimError> {
        let mut r = Reader::new(bytes);
        let magic = r.take(8, "magic")?;
        if magic != MAGIC {
            return Err(SimError::CheckpointBadMagic {
                found: magic.try_into().expect("8 bytes"),
            });
        }
        let version = r.u32("version")?;
        if version != VERSION {
            return Err(SimError::CheckpointVersionSkew {
                found: version,
                supported: VERSION,
            });
        }
        // Whole-file CRC before trusting any structure: guarantees every
        // single-byte corruption is caught, including inside length
        // fields that would otherwise mis-slice the section walk.
        if r.remaining() < 4 {
            return Err(SimError::CheckpointTruncated {
                context: "file trailer",
                needed: 4,
                available: r.remaining(),
            });
        }
        let body_len = bytes.len() - 4;
        let stored = u32::from_le_bytes(bytes[body_len..].try_into().expect("4 bytes"));
        let computed = crc32(&bytes[..body_len]);
        if stored != computed {
            return Err(SimError::CheckpointChecksum {
                section: "file",
                stored,
                computed,
            });
        }
        let mut r = Reader::new(&bytes[12..body_len]);
        let (gates, arcs, outputs) = (pl.gates().len(), pl.arcs().len(), pl.output_gates().len());

        let mut h = Reader::new(read_section(&mut r, SEC_HEADER)?);
        let checks = [
            ("netlist fingerprint", netlist_fingerprint(pl)),
            ("delay model", delay_digest(delays)),
            ("gate count", gates as u64),
        ];
        for (what, expected) in checks {
            let stored = h.u64(what)?;
            if stored != expected {
                return Err(SimError::CheckpointDigestMismatch {
                    what,
                    stored,
                    expected,
                });
            }
        }
        h.expect_end("header size")?;

        let mut c = Reader::new(read_section(&mut r, SEC_CURSOR)?);
        let fed = c.u64("cursor vectors fed")?;
        let start = c.u64("cursor start")?;
        let last = c.u64("cursor latest output")?;
        let latest = c.u64("cursor latest delivery")?;
        let drained_to = read_opt(&mut c, "cursor drain point")?;
        let completed_last = read_opt(&mut c, "cursor last completion")?;
        let first = match c.u8("pending error")? {
            0 => None,
            tag @ (1 | 2) => {
                let tick = c.u64("pending error tick")?;
                let index = c.u32("pending error index")?;
                let e = if tag == 1 {
                    let is_master = pl
                        .gates()
                        .get(index as usize)
                        .is_some_and(|g| g.is_logic() && g.ee().is_some());
                    if !is_master {
                        return Err(out_of_range(
                            "pending error master",
                            index.into(),
                            gates as u64,
                        ));
                    }
                    SimError::UnsoundTrigger {
                        master: PlGateId::from_index(index as usize),
                    }
                } else {
                    let arc = pl.arcs().get(index as usize).ok_or_else(|| {
                        out_of_range("pending error arc", index.into(), arcs as u64)
                    })?;
                    SimError::SafetyViolation {
                        arc: PlArcId::from_index(index as usize),
                        producer: arc.src(),
                    }
                };
                Some((tick, e))
            }
            other => return Err(out_of_range("pending error", other.into(), 2)),
        };
        let missing = match c.u8("missing outputs")? {
            0 => None,
            1 => {
                let n = c.count(4, "missing output count")?;
                if n == 0 || n > outputs {
                    return Err(out_of_range(
                        "missing output count",
                        n as u64,
                        outputs as u64,
                    ));
                }
                let mut slots: Vec<u32> = Vec::with_capacity(n);
                for _ in 0..n {
                    let s = c.u32("missing output")?;
                    if s as usize >= outputs || slots.last().is_some_and(|&p| p >= s) {
                        return Err(out_of_range("missing output", s.into(), outputs as u64));
                    }
                    slots.push(s);
                }
                Some(slots)
            }
            other => return Err(out_of_range("missing outputs", other.into(), 1)),
        };
        c.expect_end("cursor section size")?;

        let mut g = Reader::new(read_section(&mut r, SEC_GATES)?);
        let mut last_fired = Vec::with_capacity(gates);
        for _ in 0..gates {
            last_fired.push(g.u64("gate last firing")?);
        }
        let mut values = Vec::with_capacity(gates);
        for _ in 0..gates {
            let byte = g.take(bool::WIRE_BYTES, "gate value")?;
            values.push(
                bool::from_wire(byte)
                    .ok_or_else(|| out_of_range("gate value", byte[0].into(), 1))?,
            );
        }
        g.expect_end("gates section size")?;

        let mut m = Reader::new(read_section(&mut r, SEC_MASTERS)?);
        let expected: Vec<u32> = (0..gates as u32)
            .filter(|&i| {
                let gate = &pl.gates()[i as usize];
                gate.is_logic() && gate.ee().is_some()
            })
            .collect();
        let n = m.count(20, "master count")?;
        if n != expected.len() {
            return Err(out_of_range(
                "master count",
                n as u64,
                expected.len() as u64,
            ));
        }
        let t = delays.to_ticks();
        let delays_ok = [t.ee_master, t.ee_early, t.ee_master.max(t.ee_early)];
        let mut masters = Vec::with_capacity(n);
        for &want in &expected {
            let gate = m.u32("master gate")?;
            if gate != want {
                return Err(out_of_range("master gate", gate.into(), gates as u64));
            }
            let produced = m.u64("master produce tick")?;
            if produced > last_fired[gate as usize] {
                return Err(out_of_range(
                    "master produce tick",
                    produced,
                    last_fired[gate as usize],
                ));
            }
            let ack_delay = m.u64("master ack delay")?;
            if !delays_ok.contains(&ack_delay) {
                return Err(out_of_range("master ack delay", ack_delay, delays_ok[2]));
            }
            masters.push(MasterState {
                gate,
                produced,
                ack_delay,
            });
        }
        m.expect_end("masters section size")?;
        r.expect_end("trailing bytes")?;

        Ok(SimCheckpoint {
            fingerprint: netlist_fingerprint(pl),
            last: last_fired,
            values,
            masters,
            latest,
            cursor: Cursor {
                fed,
                start,
                drained_to,
                completed_last,
                last,
                missing,
                first,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::LatencySchedule;
    use pl_boolfn::TruthTable;
    use pl_core::ee::EeOptions;
    use pl_netlist::Netlist;

    /// A 3-bit ripple-carry adder with early evaluation: masters, marked
    /// and token-free arcs, every section populated.
    fn ee_adder() -> PlNetlist {
        let mut n = Netlist::new("rca");
        let a: Vec<_> = (0..3).map(|i| n.add_input(format!("a{i}"))).collect();
        let b: Vec<_> = (0..3).map(|i| n.add_input(format!("b{i}"))).collect();
        let mut carry = n.add_const(false);
        for i in 0..3 {
            let sum_t = TruthTable::from_fn(3, |m| m.count_ones() % 2 == 1);
            let cry_t = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
            let s = n.add_lut(sum_t, vec![a[i], b[i], carry]).unwrap();
            carry = n.add_lut(cry_t, vec![a[i], b[i], carry]).unwrap();
            n.set_output(format!("s{i}"), s);
        }
        n.set_output("cout", carry);
        PlNetlist::from_sync(&n)
            .unwrap()
            .with_early_evaluation(&EeOptions::default())
            .into_netlist()
    }

    fn vectors(count: usize) -> Vec<Vec<bool>> {
        crate::random_vectors(6, count, 0x3C4E)
    }

    /// A checkpoint after three fed vectors.
    fn mid_stream_checkpoint(pl: &PlNetlist) -> SimCheckpoint {
        let mut s = LatencySchedule::new(pl, DelayModel::default()).unwrap();
        s.start_stream();
        s.feed(&vectors(3)).unwrap();
        let ck = s.snapshot();
        assert!(!ck.masters.is_empty(), "the adder has masters");
        ck
    }

    /// Recomputes every section CRC and the trailer after a deliberate
    /// payload mutation, so tests can exercise the semantic validators
    /// behind the checksums.
    fn fix_crcs(bytes: &mut [u8]) {
        let end = bytes.len() - 4;
        let mut pos = 12;
        while pos + 9 <= end {
            let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
            let p = pos + 9;
            let crc = crc32(&bytes[p..p + len]);
            bytes[p + len..p + len + 4].copy_from_slice(&crc.to_le_bytes());
            pos = p + len + 4;
        }
        let trailer = crc32(&bytes[..end]);
        bytes[end..].copy_from_slice(&trailer.to_le_bytes());
    }

    /// Byte offset of section `index`'s payload (0-based, file order).
    fn payload_offset(bytes: &[u8], index: usize) -> usize {
        let mut pos = 12;
        for _ in 0..index {
            let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
            pos += 9 + len + 4;
        }
        pos + 9
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip_is_identity_mid_stream() {
        let pl = ee_adder();
        let delays = DelayModel::default();
        let ck = mid_stream_checkpoint(&pl);
        let bytes = ck.to_bytes(&delays);
        let back = SimCheckpoint::from_bytes(&bytes, &pl, &delays).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn round_trip_resumes_bit_identically() {
        let pl = ee_adder();
        let delays = DelayModel::default();
        let vecs = vectors(9);
        let want = LatencySchedule::new(&pl, delays.clone())
            .unwrap()
            .run_stream(&vecs)
            .unwrap();

        let mut first = LatencySchedule::new(&pl, delays.clone()).unwrap();
        first.start_stream();
        let mut words = first.feed(&vecs[..4]).unwrap();
        let bytes = first.snapshot().to_bytes(&delays);
        let ck = SimCheckpoint::from_bytes(&bytes, &pl, &delays).unwrap();
        let mut resumed = LatencySchedule::new(&pl, delays).unwrap();
        resumed.restore(&ck).unwrap();
        words.extend(resumed.feed(&vecs[4..]).unwrap());
        assert_eq!(resumed.finish(words).unwrap(), want);
    }

    #[test]
    fn initial_state_round_trips() {
        let pl = ee_adder();
        let delays = DelayModel::default();
        let ck = LatencySchedule::new(&pl, delays.clone())
            .unwrap()
            .snapshot();
        let bytes = ck.to_bytes(&delays);
        assert_eq!(SimCheckpoint::from_bytes(&bytes, &pl, &delays).unwrap(), ck);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let pl = ee_adder();
        let delays = DelayModel::default();
        let bytes = mid_stream_checkpoint(&pl).to_bytes(&delays);
        for len in 0..bytes.len() {
            let err = SimCheckpoint::from_bytes(&bytes[..len], &pl, &delays)
                .expect_err("truncated input must not decode");
            // Any typed error is acceptable; none may panic.
            let _ = err.to_string();
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let pl = ee_adder();
        let delays = DelayModel::default();
        let bytes = mid_stream_checkpoint(&pl).to_bytes(&delays);
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xA5;
            let err = SimCheckpoint::from_bytes(&corrupt, &pl, &delays)
                .expect_err("flipped byte must not decode");
            let _ = err.to_string();
        }
    }

    #[test]
    fn bad_magic_is_named() {
        let pl = ee_adder();
        let delays = DelayModel::default();
        let mut bytes = mid_stream_checkpoint(&pl).to_bytes(&delays);
        bytes[0] = b'X';
        match SimCheckpoint::from_bytes(&bytes, &pl, &delays) {
            Err(SimError::CheckpointBadMagic { found }) => assert_eq!(found[0], b'X'),
            other => panic!("expected CheckpointBadMagic, got {other:?}"),
        }
    }

    #[test]
    fn version_skew_is_named() {
        let pl = ee_adder();
        let delays = DelayModel::default();
        let mut bytes = mid_stream_checkpoint(&pl).to_bytes(&delays);
        bytes[8..12].copy_from_slice(&4u32.to_le_bytes());
        // A future-version file would carry valid CRCs; only the version
        // differs.
        fix_crcs(&mut bytes);
        match SimCheckpoint::from_bytes(&bytes, &pl, &delays) {
            Err(SimError::CheckpointVersionSkew {
                found: 4,
                supported: VERSION,
            }) => {}
            other => panic!("expected CheckpointVersionSkew, got {other:?}"),
        }
    }

    /// The event engine's queue checkpoints — version 1 (scalar) and 2
    /// (64 lanes) — are version skew, named before any section is read.
    #[test]
    fn event_engine_versions_are_version_skew() {
        let pl = ee_adder();
        let delays = DelayModel::default();
        for old in [1u32, 2] {
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(&old.to_le_bytes());
            bytes.extend_from_slice(&[1, 40, 0, 0, 0, 0, 0, 0, 0]);
            match SimCheckpoint::from_bytes(&bytes, &pl, &delays) {
                Err(SimError::CheckpointVersionSkew {
                    found,
                    supported: VERSION,
                }) => assert_eq!(found, old),
                other => panic!("v{old}: expected CheckpointVersionSkew, got {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_netlist_is_a_digest_mismatch() {
        let pl = ee_adder();
        let delays = DelayModel::default();
        let bytes = mid_stream_checkpoint(&pl).to_bytes(&delays);
        let mut n = Netlist::new("xor");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_xor2(a, b).unwrap();
        n.set_output("y", g);
        let other = PlNetlist::from_sync(&n).unwrap();
        match SimCheckpoint::from_bytes(&bytes, &other, &delays) {
            Err(SimError::CheckpointDigestMismatch {
                what: "netlist fingerprint",
                ..
            }) => {}
            other => panic!("expected a fingerprint mismatch, got {other:?}"),
        }
    }

    #[test]
    fn wrong_delay_model_is_a_digest_mismatch() {
        let pl = ee_adder();
        let delays = DelayModel::default();
        let bytes = mid_stream_checkpoint(&pl).to_bytes(&delays);
        let scaled = delays.scaled(2.0);
        match SimCheckpoint::from_bytes(&bytes, &pl, &scaled) {
            Err(SimError::CheckpointDigestMismatch {
                what: "delay model",
                ..
            }) => {}
            other => panic!("expected a delay-model mismatch, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_gate_index_is_rejected_despite_valid_checksums() {
        let pl = ee_adder();
        let delays = DelayModel::default();
        let mut bytes = mid_stream_checkpoint(&pl).to_bytes(&delays);
        // MASTERS is the fourth section; its payload starts with the
        // master count (8 bytes), then the first master's gate (4).
        let gate_at = payload_offset(&bytes, 3) + 8;
        bytes[gate_at..gate_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        fix_crcs(&mut bytes);
        match SimCheckpoint::from_bytes(&bytes, &pl, &delays) {
            Err(SimError::CheckpointOutOfRange {
                field: "master gate",
                ..
            }) => {}
            other => panic!("expected an out-of-range gate, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_section_names_itself() {
        let pl = ee_adder();
        let delays = DelayModel::default();
        let mut bytes = mid_stream_checkpoint(&pl).to_bytes(&delays);
        // Flip one payload byte inside CURSOR (section 2) and repair only
        // the trailer, leaving the section CRC stale: the decoder must
        // name the section.
        let cursor_at = payload_offset(&bytes, 1);
        bytes[cursor_at] ^= 0xFF;
        let end = bytes.len() - 4;
        let trailer = crc32(&bytes[..end]);
        bytes[end..].copy_from_slice(&trailer.to_le_bytes());
        match SimCheckpoint::from_bytes(&bytes, &pl, &delays) {
            Err(SimError::CheckpointChecksum {
                section: "CURSOR", ..
            }) => {}
            other => panic!("expected the CURSOR checksum to fail, got {other:?}"),
        }
    }

    #[test]
    fn delay_digest_distinguishes_components() {
        let d = DelayModel::default();
        assert_ne!(delay_digest(&d), delay_digest(&d.scaled(2.0)));
        // Swapping two component values must change the digest (FNV-1a
        // mixing is order-sensitive).
        let swapped = DelayModel {
            c_element: d.lut,
            lut: d.c_element,
            ..d.clone()
        };
        assert_ne!(delay_digest(&d), delay_digest(&swapped));
    }
}
