//! Request-scoped trace context: trace ids minted (or adopted) at the
//! wire front, carried on the trace a root span builds, and used by the
//! head-sampler to decide whether a request records spans at all.
//!
//! A [`TraceId`] is 128 bits rendered as 32 lowercase hex digits. Ids
//! minted in-process mix a per-process seed with a monotone counter so
//! they are unique within and (with high probability) across processes.
//! Client-supplied ids are parsed strictly: 1–32 hex digits, nonzero;
//! anything else is rejected with a positioned [`TraceIdError`] so the
//! wire layer can refuse the id instead of silently minting a fresh one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Maximum accepted length, in bytes, of a client-supplied trace id.
pub const MAX_TRACE_ID_LEN: usize = 32;

/// A 128-bit request trace id, rendered as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u128);

/// What was wrong with a client-supplied trace id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceIdErrorKind {
    /// The id is the empty string.
    Empty,
    /// A character outside `[0-9a-fA-F]` (the offending char).
    InvalidChar(char),
    /// The id is longer than [`MAX_TRACE_ID_LEN`] bytes (the length).
    Oversize(usize),
    /// The id is all zeroes, which is reserved as "no id".
    Zero,
}

/// A rejected client-supplied trace id, with the byte position of the
/// offending character (0 for `Empty`/`Zero`, [`MAX_TRACE_ID_LEN`] for
/// `Oversize` — the first byte past the limit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceIdError {
    /// The id as submitted, truncated to 64 bytes for display.
    pub input: String,
    /// Byte offset of the character that failed validation.
    pub position: usize,
    /// What was wrong.
    pub kind: TraceIdErrorKind,
}

impl std::fmt::Display for TraceIdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            TraceIdErrorKind::Empty => write!(f, "trace id may not be empty"),
            TraceIdErrorKind::InvalidChar(c) => write!(
                f,
                "invalid trace id {:?}: char {:?} at byte {} (allowed: [0-9a-f], max {} digits)",
                self.input, c, self.position, MAX_TRACE_ID_LEN
            ),
            TraceIdErrorKind::Oversize(len) => write!(
                f,
                "oversize trace id: {} bytes at byte {} (max {} hex digits)",
                len, self.position, MAX_TRACE_ID_LEN
            ),
            TraceIdErrorKind::Zero => {
                write!(f, "trace id may not be zero (reserved as \"no id\")")
            }
        }
    }
}

impl std::error::Error for TraceIdError {}

/// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let pid = std::process::id() as u64;
        mix64(t ^ pid.rotate_left(32)) | 1
    })
}

static MINT_COUNTER: AtomicU64 = AtomicU64::new(1);
static SESSION_COUNTER: AtomicU64 = AtomicU64::new(1);

impl TraceId {
    /// Mint a fresh id: the process seed mixed with a monotone counter.
    /// Never returns the zero id.
    pub fn mint() -> TraceId {
        let n = MINT_COUNTER.fetch_add(1, Ordering::Relaxed);
        let seed = process_seed();
        let hi = mix64(seed ^ n);
        let lo = mix64(n.wrapping_mul(0xa24b_aed4_963e_e407).wrapping_add(seed));
        let v = ((hi as u128) << 64) | lo as u128;
        TraceId(if v == 0 { 1 } else { v })
    }

    /// Parse a client-supplied id: 1–32 hex digits (either case),
    /// nonzero. Shorter ids are zero-extended on the left.
    pub fn parse(s: &str) -> Result<TraceId, TraceIdError> {
        let err = |position, kind| TraceIdError {
            input: s.chars().take(64).collect(),
            position,
            kind,
        };
        if s.is_empty() {
            return Err(err(0, TraceIdErrorKind::Empty));
        }
        if s.len() > MAX_TRACE_ID_LEN {
            return Err(err(MAX_TRACE_ID_LEN, TraceIdErrorKind::Oversize(s.len())));
        }
        let mut v: u128 = 0;
        for (pos, c) in s.char_indices() {
            let d = match c.to_digit(16) {
                Some(d) => d,
                None => return Err(err(pos, TraceIdErrorKind::InvalidChar(c))),
            };
            v = (v << 4) | d as u128;
        }
        if v == 0 {
            return Err(err(0, TraceIdErrorKind::Zero));
        }
        Ok(TraceId(v))
    }
}

impl std::fmt::Display for TraceId {
    /// 32 lowercase hex digits, zero-padded.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// The identity a wire request carries into the span layer: attached to
/// the trace its root span builds, surfaced in the slowlog and both
/// export formats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestCtx {
    /// The request's trace id (minted at the front or client-adopted).
    pub trace_id: TraceId,
    /// Tenant the request resolved against.
    pub tenant: String,
    /// Server-assigned session (connection) number.
    pub session: u64,
    /// Command kind, e.g. `"assert-ind"`, `"retrieve"`, `"session"`,
    /// `"http.eval"`.
    pub kind: &'static str,
}

/// Allocate a process-unique session number for a new wire connection.
pub fn next_session_id() -> u64 {
    SESSION_COUNTER.fetch_add(1, Ordering::Relaxed)
}

// The head-sampling rate, stored as f64 bits. Default 1.0 (trace every
// request). Sampling applies only at ObsLevel::Full and only to span
// collection — request latency is always measured at the front.
static SAMPLE_BITS: AtomicU64 = AtomicU64::new(0x3FF0_0000_0000_0000); // 1.0f64

/// Set the head-sampling rate (clamped to `[0, 1]`), returning the
/// previous rate.
pub fn set_sample_rate(rate: f64) -> f64 {
    let clamped = if rate.is_nan() {
        1.0
    } else {
        rate.clamp(0.0, 1.0)
    };
    f64::from_bits(SAMPLE_BITS.swap(clamped.to_bits(), Ordering::Relaxed))
}

/// The current head-sampling rate in `[0, 1]`.
pub fn sample_rate() -> f64 {
    f64::from_bits(SAMPLE_BITS.load(Ordering::Relaxed))
}

/// Head-sampling decision for a trace id: deterministic per id, so
/// retries of the same id sample the same way and distributed parties
/// agree. `true` means "collect spans".
pub fn sampled(id: TraceId) -> bool {
    let rate = sample_rate();
    if rate >= 1.0 {
        return true;
    }
    if rate <= 0.0 {
        return false;
    }
    // Hash the id down to 53 uniform bits and compare against the rate.
    let h = mix64(id.0 as u64 ^ mix64((id.0 >> 64) as u64));
    ((h >> 11) as f64 / (1u64 << 53) as f64) < rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minted_ids_are_unique_and_nonzero() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert_ne!(a, b);
        assert_ne!(a.0, 0);
        assert_eq!(a.to_string().len(), 32);
    }

    #[test]
    fn parse_round_trips_render() {
        let id = TraceId::mint();
        assert_eq!(TraceId::parse(&id.to_string()).unwrap(), id);
        // Short ids zero-extend; case-insensitive.
        assert_eq!(
            TraceId::parse("DEADBEEF").unwrap(),
            TraceId::parse("000000000000000000000000deadbeef").unwrap()
        );
    }

    #[test]
    fn parse_rejects_with_positions() {
        let e = TraceId::parse("").unwrap_err();
        assert_eq!(e.kind, TraceIdErrorKind::Empty);
        let e = TraceId::parse("12g4").unwrap_err();
        assert_eq!(e.kind, TraceIdErrorKind::InvalidChar('g'));
        assert_eq!(e.position, 2);
        let long = "a".repeat(33);
        let e = TraceId::parse(&long).unwrap_err();
        assert_eq!(e.kind, TraceIdErrorKind::Oversize(33));
        assert_eq!(e.position, MAX_TRACE_ID_LEN);
        let e = TraceId::parse("0000").unwrap_err();
        assert_eq!(e.kind, TraceIdErrorKind::Zero);
        assert!(e.to_string().contains("zero"));
    }

    #[test]
    fn sampling_is_deterministic_and_respects_extremes() {
        let _l = crate::lock_globals();
        let id = TraceId::parse("abc123").unwrap();
        let prev = set_sample_rate(1.0);
        assert!(sampled(id));
        set_sample_rate(0.0);
        assert!(!sampled(id));
        set_sample_rate(0.5);
        let first = sampled(id);
        for _ in 0..10 {
            assert_eq!(sampled(id), first, "decision must be deterministic per id");
        }
        set_sample_rate(prev);
    }

    #[test]
    fn sample_rate_clamps() {
        let _l = crate::lock_globals();
        let prev = set_sample_rate(7.5);
        assert_eq!(sample_rate(), 1.0);
        set_sample_rate(-3.0);
        assert_eq!(sample_rate(), 0.0);
        set_sample_rate(prev);
    }

    #[test]
    fn half_rate_samples_roughly_half() {
        let _l = crate::lock_globals();
        let prev = set_sample_rate(0.5);
        let n = 2000;
        let hits = (0..n).filter(|_| sampled(TraceId::mint())).count();
        set_sample_rate(prev);
        assert!(
            hits > n / 4 && hits < 3 * n / 4,
            "rate 0.5 sampled {hits}/{n}"
        );
    }
}
