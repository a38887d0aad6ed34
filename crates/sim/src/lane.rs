//! Lane words: the value payload the engines are generic over.
//!
//! The event engine ([`crate::LaneSimulator`]) and the static schedule
//! ([`crate::LatencySchedule`]) both march `L::LANES` independent Boolean
//! input vectors in lockstep through ONE timing: one event flow, or one
//! levelized pass per round. What makes this sound is the Kahn
//! determinism of the marked graph: which round's token an arc carries is
//! decided by the token game alone (timing, readiness, acknowledges — all
//! value-independent bookkeeping shared by every lane), while the *value*
//! riding each token is a pure function of that round's input values, per
//! lane. So event **timing is lane-invariant** and only **values are
//! per-lane** — one shared schedule, `LANES` payloads per token.
//!
//! Two instantiations exist:
//!
//! * [`bool`] — the scalar engine (`LANES = 1`). Its storage and LUT
//!   lookup are exactly the pre-lane engine's (a `u8` pin-value bitset
//!   indexing the packed truth table by shift), so the 1-lane engine is
//!   pinned bit-identical to the pre-refactor scalar engine.
//! * [`u64`] — the batch engine (`LANES = 64`): 64 vectors per token,
//!   gate evaluation as a Shannon mux tree of bitwise ops over the packed
//!   truth table (≤ `2^k - 1` three-op muxes cover all 64 lanes at once).
//!
//! The one semantic knob the lane count turns: an early-evaluation master
//! takes its early path only when the trigger fired true **in every
//! lane** ([`LaneWord::all`]). Lanes whose trigger was false still get
//! the correct (forced-checked) value — they simply share the slower
//! all-lanes schedule. Values never change, only timing, which is exactly
//! the latitude the determinism contract leaves open.

/// One token payload: `LANES` independent Boolean values.
///
/// Implemented by `bool` (scalar) and `u64` (64-lane batch). The trait is
/// not intended for further implementation outside this crate: the
/// checkpoint wire format, the sweep helpers, and the equivalence suites
/// all enumerate exactly these two widths.
pub trait LaneWord: Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// Independent Boolean lanes packed in one word.
    const LANES: usize;
    /// Bytes of one word in the checkpoint wire encoding.
    const WIRE_BYTES: usize;

    /// Per-gate storage for the current input-pin token values. The
    /// scalar word keeps the pre-lane engine's `u8` bitset (one bit per
    /// pin — the partial LUT minterm index); the batch word keeps one
    /// lane word per pin.
    type PinVals: Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static;

    /// The word with every lane set to `v`.
    fn splat(v: bool) -> Self;
    /// Lane `i`'s value.
    fn lane(self, i: usize) -> bool;
    /// True iff every lane is true — the early-trigger firing condition
    /// (the shared event flow takes the early path only when all lanes'
    /// triggers agree; see the module docs).
    fn all(self) -> bool;

    /// Empty pin-value storage for one gate.
    fn pv_empty() -> Self::PinVals;
    /// Records `value` as pin `pin`'s current token value.
    fn pv_set(pv: &mut Self::PinVals, pin: u8, value: Self);

    /// Evaluates the gate's packed truth table over its complete pins.
    /// `pin_tokens` marks the token-carrying pins (all data pins — the
    /// engine only evaluates when `data_ready`), `const_pin_mask` /
    /// `const_value_bits` the folded constant pins.
    fn eval(
        eval_bits: u64,
        pv: &Self::PinVals,
        pin_tokens: u8,
        const_pin_mask: u8,
        const_value_bits: u8,
    ) -> Self;

    /// The early-evaluation forced value: with only the pins in
    /// `pin_tokens` (plus constants) known, returns the output word iff
    /// every lane's output is already forced — i.e. all completions of
    /// the missing pins (`data_full_mask & !pin_tokens`) agree, lane by
    /// lane. `None` means at least one lane is not forced: the trigger
    /// that promised otherwise is unsound.
    fn forced(
        eval_bits: u64,
        pv: &Self::PinVals,
        pin_tokens: u8,
        data_full_mask: u8,
        const_pin_mask: u8,
        const_value_bits: u8,
    ) -> Option<Self>;

    /// Appends this word's wire encoding (exactly [`LaneWord::WIRE_BYTES`]
    /// bytes) — `bool` as one `0/1` byte (the checkpoint's gate values), `u64`
    /// as eight little-endian bytes.
    fn to_wire(self, out: &mut Vec<u8>);
    /// Decodes one word from exactly [`LaneWord::WIRE_BYTES`] bytes;
    /// `None` if the bytes are outside the word's domain (a non-0/1
    /// boolean).
    fn from_wire(bytes: &[u8]) -> Option<Self>;
}

impl LaneWord for bool {
    const LANES: usize = 1;
    const WIRE_BYTES: usize = 1;

    type PinVals = u8;

    #[inline]
    fn splat(v: bool) -> Self {
        v
    }

    #[inline]
    fn lane(self, i: usize) -> bool {
        debug_assert_eq!(i, 0, "the scalar word has one lane");
        self
    }

    #[inline]
    fn all(self) -> bool {
        self
    }

    #[inline]
    fn pv_empty() -> u8 {
        0
    }

    #[inline]
    fn pv_set(pv: &mut u8, pin: u8, value: bool) {
        // Branch-free: pin values are data, a branch on them mispredicts.
        *pv = *pv & !(1 << pin) | u8::from(value) << pin;
    }

    #[inline]
    fn eval(
        eval_bits: u64,
        pv: &u8,
        pin_tokens: u8,
        _const_pin_mask: u8,
        const_value_bits: u8,
    ) -> bool {
        // The pre-lane engine's lookup, verbatim: the minterm index is the
        // pin-value bitset (masked to live tokens) plus folded constants.
        let m = pv & pin_tokens | const_value_bits;
        (eval_bits >> m) & 1 == 1
    }

    fn forced(
        eval_bits: u64,
        pv: &u8,
        pin_tokens: u8,
        data_full_mask: u8,
        _const_pin_mask: u8,
        const_value_bits: u8,
    ) -> Option<bool> {
        let known = (pv & pin_tokens) | const_value_bits;
        let missing = data_full_mask & !pin_tokens;
        // Enumerate every completion of the missing pins (subsets of
        // `missing`, including the empty one); forced iff all rows agree.
        let (mut acc_and, mut acc_or) = (true, false);
        let mut sub = missing;
        loop {
            let v = (eval_bits >> (known | sub)) & 1 == 1;
            acc_and &= v;
            acc_or |= v;
            if sub == 0 {
                break;
            }
            sub = (sub - 1) & missing;
        }
        (acc_and == acc_or).then_some(acc_and)
    }

    #[inline]
    fn to_wire(self, out: &mut Vec<u8>) {
        out.push(u8::from(self));
    }

    #[inline]
    fn from_wire(bytes: &[u8]) -> Option<bool> {
        match bytes {
            [0] => Some(false),
            [1] => Some(true),
            _ => None,
        }
    }
}

impl LaneWord for u64 {
    const LANES: usize = 64;
    const WIRE_BYTES: usize = 8;

    type PinVals = [u64; 8];

    #[inline]
    fn splat(v: bool) -> Self {
        if v {
            !0
        } else {
            0
        }
    }

    #[inline]
    fn lane(self, i: usize) -> bool {
        debug_assert!(i < 64, "lane index out of range");
        (self >> i) & 1 == 1
    }

    #[inline]
    fn all(self) -> bool {
        self == !0
    }

    #[inline]
    fn pv_empty() -> [u64; 8] {
        [0; 8]
    }

    #[inline]
    fn pv_set(pv: &mut [u64; 8], pin: u8, value: u64) {
        pv[pin as usize] = value;
    }

    #[inline]
    fn eval(
        eval_bits: u64,
        pv: &[u64; 8],
        pin_tokens: u8,
        const_pin_mask: u8,
        const_value_bits: u8,
    ) -> u64 {
        eval_lanes(eval_bits, pin_tokens | const_pin_mask, &|p| {
            if const_pin_mask >> p & 1 == 1 {
                u64::splat(const_value_bits >> p & 1 == 1)
            } else {
                pv[p as usize]
            }
        })
    }

    fn forced(
        eval_bits: u64,
        pv: &[u64; 8],
        pin_tokens: u8,
        data_full_mask: u8,
        const_pin_mask: u8,
        const_value_bits: u8,
    ) -> Option<u64> {
        let missing = data_full_mask & !pin_tokens;
        let pins = data_full_mask | const_pin_mask;
        // Same subset enumeration as the scalar word, but each completion
        // is evaluated for all 64 lanes at once; a lane is forced iff its
        // bit agrees across every completion.
        let (mut acc_and, mut acc_or) = (!0u64, 0u64);
        let mut sub = missing;
        loop {
            let s = sub;
            let w = eval_lanes(eval_bits, pins, &|p| {
                let bit = 1u8 << p;
                if missing & bit != 0 {
                    u64::splat(s & bit != 0)
                } else if const_pin_mask & bit != 0 {
                    u64::splat(const_value_bits & bit != 0)
                } else {
                    pv[p as usize]
                }
            });
            acc_and &= w;
            acc_or |= w;
            if sub == 0 {
                break;
            }
            sub = (sub - 1) & missing;
        }
        (acc_and == acc_or).then_some(acc_and)
    }

    #[inline]
    fn to_wire(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn from_wire(bytes: &[u8]) -> Option<u64> {
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }
}

/// Indices of a packed ≤6-var truth table whose variable `p` is 0: the
/// cofactor masks the word-parallel evaluator splits on.
const VAR0_MASK: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0F0F_0F0F_0F0F_0F0F,
    0x00FF_00FF_00FF_00FF,
    0x0000_FFFF_0000_FFFF,
    0x0000_0000_FFFF_FFFF,
];

/// Evaluates a packed truth table for 64 lanes at once: Shannon-expands
/// `eval_bits` over the pins in `pins` (lowest first), with `word_of(p)`
/// supplying pin `p`'s 64-lane input word. Each expansion step is one
/// 3-op mux over lane words, so a k-pin table costs at most `2^k - 1`
/// muxes for all 64 lanes together; an all-zero cofactor, or a pin the
/// cofactor does not depend on, costs none.
fn eval_lanes<F: Fn(u8) -> u64>(eval_bits: u64, pins: u8, word_of: &F) -> u64 {
    if pins == 0 || eval_bits == 0 {
        return u64::splat(eval_bits & 1 == 1);
    }
    let p = pins.trailing_zeros() as usize;
    let rest = pins & (pins - 1);
    debug_assert!(p < 6, "a packed u64 table holds at most 6 variables");
    if p >= 6 {
        // A pin beyond the table's 6-var capacity cannot affect it.
        return eval_lanes(eval_bits, rest, word_of);
    }
    // Cofactors kept in the full index space: t0/t1 are the table with
    // pin p forced to 0/1 (so recursion needs no index re-packing).
    let m0 = VAR0_MASK[p];
    let sh = 1u32 << p;
    let b0 = eval_bits & m0;
    let t0 = b0 | (b0 << sh);
    let b1 = eval_bits & !m0;
    let t1 = b1 | (b1 >> sh);
    let hi = eval_lanes(t1, rest, word_of);
    if t0 == t1 {
        return hi;
    }
    let w = word_of(p as u8);
    let lo = eval_lanes(t0, rest, word_of);
    (w & hi) | (!w & lo)
}

/// Packs per-lane Boolean values into lane words: `vals[l]` becomes lane
/// `l` of the result. Missing lanes (`vals.len() < 64`) are false.
#[must_use]
pub fn pack_lanes(vals: &[bool]) -> u64 {
    debug_assert!(vals.len() <= 64);
    vals.iter()
        .enumerate()
        .fold(0u64, |w, (l, &v)| w | (u64::from(v) << l))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0
        }
    }

    /// The wide evaluator must agree with the scalar shift-lookup on every
    /// lane, for random tables, pin subsets, and lane words.
    #[test]
    fn wide_eval_matches_scalar_lookup_per_lane() {
        let mut rng = Lcg(0x1A4E_0001);
        for _ in 0..200 {
            let bits = rng.next();
            // Random pin partition over 6 pins: tokens vs constants.
            let pins = (rng.next() & 0x3F) as u8;
            let const_pins = (rng.next() & 0x3F) as u8 & !pins;
            let const_vals = (rng.next() as u8) & const_pins;
            let mut pv = [0u64; 8];
            for (p, w) in pv.iter_mut().enumerate().take(6) {
                if pins >> p & 1 == 1 {
                    *w = rng.next();
                }
            }
            let wide = <u64 as LaneWord>::eval(bits, &pv, pins, const_pins, const_vals);
            for lane in 0..64 {
                let mut spv = 0u8;
                for p in 0..6u8 {
                    if pins >> p & 1 == 1 && pv[p as usize].lane(lane) {
                        spv |= 1 << p;
                    }
                }
                let scalar = <bool as LaneWord>::eval(bits, &spv, pins, const_pins, const_vals);
                assert_eq!(
                    wide.lane(lane),
                    scalar,
                    "lane {lane} diverged: bits {bits:#x}, pins {pins:#04x}"
                );
            }
        }
    }

    /// The wide forced-value must be Some exactly when every lane's scalar
    /// forced-value is Some, and agree per lane.
    #[test]
    fn wide_forced_matches_scalar_forced_per_lane() {
        let mut rng = Lcg(0x1A4E_0002);
        for _ in 0..200 {
            let bits = rng.next();
            let full = (rng.next() & 0x3F).max(1) as u8;
            let tokens = (rng.next() as u8) & full;
            let const_pins = (rng.next() & 0x3F & !u64::from(full)) as u8;
            let const_vals = (rng.next() as u8) & const_pins;
            let mut pv = [0u64; 8];
            for (p, w) in pv.iter_mut().enumerate().take(6) {
                if tokens >> p & 1 == 1 {
                    *w = rng.next();
                }
            }
            let wide = <u64 as LaneWord>::forced(bits, &pv, tokens, full, const_pins, const_vals);
            let mut scalar = Vec::with_capacity(64);
            for lane in 0..64 {
                let mut spv = 0u8;
                for p in 0..6u8 {
                    if tokens >> p & 1 == 1 && pv[p as usize].lane(lane) {
                        spv |= 1 << p;
                    }
                }
                scalar.push(<bool as LaneWord>::forced(
                    bits, &spv, tokens, full, const_pins, const_vals,
                ));
            }
            match wide {
                Some(w) => {
                    for (lane, s) in scalar.iter().enumerate() {
                        assert_eq!(Some(w.lane(lane)), *s, "lane {lane} diverged");
                    }
                }
                None => assert!(
                    scalar.iter().any(Option::is_none),
                    "wide said unforced but every lane was forced"
                ),
            }
        }
    }

    #[test]
    fn wire_round_trips() {
        for v in [false, true] {
            let mut buf = Vec::new();
            v.to_wire(&mut buf);
            assert_eq!(buf.len(), <bool as LaneWord>::WIRE_BYTES);
            assert_eq!(<bool as LaneWord>::from_wire(&buf), Some(v));
        }
        assert_eq!(<bool as LaneWord>::from_wire(&[2]), None);
        for w in [0u64, 1, !0, 0xDEAD_BEEF_0BAD_CAFE] {
            let mut buf = Vec::new();
            w.to_wire(&mut buf);
            assert_eq!(buf.len(), <u64 as LaneWord>::WIRE_BYTES);
            assert_eq!(<u64 as LaneWord>::from_wire(&buf), Some(w));
        }
    }

    #[test]
    fn pack_lanes_places_bits() {
        assert_eq!(pack_lanes(&[]), 0);
        assert_eq!(pack_lanes(&[true]), 1);
        assert_eq!(pack_lanes(&[false, true, true]), 0b110);
        assert!(pack_lanes(&[true; 64]).all());
    }
}
