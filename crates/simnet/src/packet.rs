//! Simulated packets.
//!
//! A [`Packet`] carries its wire size, flow identity (an IPv4 5-tuple
//! from the workload generator), arrival timestamp, and — only when a
//! payload-inspecting function is in the pipeline — synthesized payload
//! bytes, filled in when the packet first starts service. Payloads use
//! the in-repo [`Payload`] type: clones inside the pipeline are
//! reference-counted, not copied, and the (overwhelmingly common) empty
//! payload allocates nothing at all.

use apples_rng::Rng;
use apples_workload::FiveTuple;
use std::ops::Deref;
use std::sync::Arc;

/// Reference-counted, immutable packet payload bytes.
///
/// The hot path (header-only processing) carries the empty payload,
/// which is a `None` internally — no allocation, no refcount traffic.
/// DPI workloads attach a shared `Arc<[u8]>` so per-stage packet clones
/// stay O(1) regardless of payload length.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Payload(Option<Arc<[u8]>>);

impl Payload {
    /// The empty payload. Allocation-free.
    pub const fn empty() -> Self {
        Payload(None)
    }

    /// Wraps owned bytes (one allocation, shared by all clones).
    pub fn from_vec(buf: Vec<u8>) -> Self {
        if buf.is_empty() {
            Payload(None)
        } else {
            Payload(Some(Arc::from(buf.into_boxed_slice())))
        }
    }

    /// Copies a slice into a new payload.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        Payload::from_vec(bytes.to_vec())
    }

    /// The payload bytes (empty slice when no payload is attached).
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Some(bytes) => bytes,
            None => &[],
        }
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(buf: Vec<u8>) -> Self {
        Payload::from_vec(buf)
    }
}

/// A packet traversing the simulated pipeline.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Monotonic packet id (generation order).
    pub id: u64,
    /// Flow index within the workload's population.
    pub flow: u32,
    /// The flow's 5-tuple.
    pub tuple: FiveTuple,
    /// Frame size on the wire, bytes.
    pub size_bytes: u32,
    /// Arrival time at the first stage, simulated nanoseconds.
    pub t_arrival_ns: u64,
    /// L4 payload bytes (empty unless synthesized for DPI workloads).
    pub payload: Payload,
    /// Set by the fault-injection layer when the packet was corrupted
    /// in transit; NFs apply their fail-open/fail-closed policy to it.
    pub corrupted: bool,
}

impl Packet {
    /// Creates a packet without payload bytes (header-only processing).
    pub fn new(id: u64, flow: u32, tuple: FiveTuple, size_bytes: u32, t_arrival_ns: u64) -> Self {
        Packet {
            id,
            flow,
            tuple,
            size_bytes,
            t_arrival_ns,
            payload: Payload::empty(),
            corrupted: false,
        }
    }

    /// Attaches a synthesized payload of `len` bytes, deterministic in
    /// `(seed, id)`. With probability `attack_prob`, one of `needles` is
    /// embedded at a random offset — the DPI experiments' ground truth.
    pub fn with_payload(
        mut self,
        len: usize,
        seed: u64,
        attack_prob: f64,
        needles: &[&[u8]],
    ) -> Self {
        self.payload = synth_payload(seed, self.id, len, attack_prob, needles);
        self
    }

    /// Wire bits including Ethernet preamble + inter-frame gap (20 B),
    /// the quantity that occupies a link. Per-event on the engine's hot
    /// path, hence the inline hint.
    #[inline]
    pub fn wire_bits(&self) -> u64 {
        u64::from(self.size_bytes + 20) * 8
    }
}

/// L2–L4 header bytes of a frame; the rest of `size_bytes` is payload.
const HEADER_BYTES: u32 = 54;

/// The synthesized payload of packet `id`: `len` bytes, a pure function
/// of `(seed, id, len, attack_prob, needles)`. With probability
/// `attack_prob`, one of `needles` is embedded at a random offset.
/// [`Packet::with_payload`] and [`PayloadSynth::fill`] both call it.
fn synth_payload<N: AsRef<[u8]>>(
    seed: u64,
    id: u64,
    len: usize,
    attack_prob: f64,
    needles: &[N],
) -> Payload {
    let mut rng = Rng::seed_from_u64(seed ^ id.wrapping_mul(0x9E3779B97F4A7C15));
    let mut buf = vec![0u8; len];
    // Printable-ish filler so needles are unambiguous.
    for b in buf.iter_mut() {
        *b = rng.range_u8_inclusive(b'a', b'z');
    }
    if !needles.is_empty() && len > 0 && rng.gen_bool(attack_prob) {
        let needle = needles[rng.range_usize(0, needles.len())].as_ref();
        if needle.len() <= len {
            let off = rng.range_usize(0, len - needle.len() + 1);
            buf[off..off + needle.len()].copy_from_slice(needle);
        }
    }
    Payload::from_vec(buf)
}

/// A run's payload synthesis, deferred to service entry. Packets enter
/// the engine header-only; the engine calls [`PayloadSynth::fill`] on
/// each packet as it starts service, so packets dropped at a queue never
/// pay for bytes no function reads. Because the bytes depend only on
/// `(seed, id, len)` and no function reads a payload before it is
/// served, the result is the same as synthesizing at arrival.
#[derive(Debug, Clone)]
pub(crate) struct PayloadSynth {
    seed: u64,
    attack_prob: f64,
    needles: Vec<Vec<u8>>,
}

impl PayloadSynth {
    pub(crate) fn new(seed: u64, attack_prob: f64, needles: Vec<Vec<u8>>) -> Self {
        PayloadSynth { seed, attack_prob, needles }
    }

    /// Gives `pkt` its payload unless an earlier stage already did.
    #[inline]
    pub(crate) fn fill(&self, pkt: &mut Packet) {
        let len = pkt.size_bytes.saturating_sub(HEADER_BYTES) as usize;
        if len > 0 && pkt.payload.is_empty() {
            pkt.payload = synth_payload(self.seed, pkt.id, len, self.attack_prob, &self.needles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple() -> FiveTuple {
        FiveTuple { src_ip: 0x0A000001, dst_ip: 0xC0A80001, src_port: 1234, dst_port: 80, proto: 6 }
    }

    #[test]
    fn header_only_packets_have_empty_payload() {
        let p = Packet::new(1, 0, tuple(), 64, 100);
        assert!(p.payload.is_empty());
        assert_eq!(p.size_bytes, 64);
    }

    #[test]
    fn wire_bits_include_overhead() {
        let p = Packet::new(1, 0, tuple(), 64, 0);
        assert_eq!(p.wire_bits(), (64 + 20) * 8);
    }

    #[test]
    fn payload_is_deterministic_per_seed_and_id() {
        let a = Packet::new(7, 0, tuple(), 256, 0).with_payload(200, 99, 0.0, &[]);
        let b = Packet::new(7, 0, tuple(), 256, 0).with_payload(200, 99, 0.0, &[]);
        assert_eq!(a.payload, b.payload);
        let c = Packet::new(8, 0, tuple(), 256, 0).with_payload(200, 99, 0.0, &[]);
        assert_ne!(a.payload, c.payload);
    }

    #[test]
    fn attack_probability_controls_needle_insertion() {
        let needles: &[&[u8]] = &[b"EVILPATTERN"];
        let contains = |prob: f64| {
            (0..500)
                .filter(|i| {
                    let p = Packet::new(*i, 0, tuple(), 512, 0).with_payload(400, 1, prob, needles);
                    p.payload.windows(11).any(|w| w == b"EVILPATTERN")
                })
                .count()
        };
        assert_eq!(contains(0.0), 0);
        let hits = contains(0.5);
        assert!(hits > 150 && hits < 350, "hits {hits}");
    }

    #[test]
    fn needle_longer_than_payload_is_skipped() {
        let needles: &[&[u8]] = &[b"AVERYLONGNEEDLE"];
        let p = Packet::new(1, 0, tuple(), 64, 0).with_payload(4, 1, 1.0, needles);
        assert_eq!(p.payload.len(), 4);
    }

    #[test]
    fn deferred_fill_matches_eager_with_payload() {
        let needles: Vec<Vec<u8>> =
            vec![b"EVILPATTERN".to_vec(), b"cmd.exe".to_vec(), b"\x90\x90\x90\x90".to_vec()];
        let refs: Vec<&[u8]> = needles.iter().map(Vec::as_slice).collect();
        let mut rng = Rng::seed_from_u64(0xDEF3);
        for len in [0usize, 1, 10, 11, 1446] {
            for attack_prob in [0.0, 0.01, 1.0] {
                for _ in 0..40 {
                    let (id, seed) = (rng.next_u64(), rng.next_u64());
                    let size = len as u32 + HEADER_BYTES;
                    let eager = Packet::new(id, 0, tuple(), size, 0).with_payload(
                        len,
                        seed,
                        attack_prob,
                        &refs,
                    );
                    let synth = PayloadSynth::new(seed, attack_prob, needles.clone());
                    let mut deferred = Packet::new(id, 0, tuple(), size, 0);
                    synth.fill(&mut deferred);
                    assert_eq!(
                        deferred.payload, eager.payload,
                        "id {id} len {len} p {attack_prob}"
                    );
                    // A later stage's fill keeps the bytes it was given.
                    let first = deferred.payload.as_ptr();
                    synth.fill(&mut deferred);
                    assert_eq!(deferred.payload.as_ptr(), first);
                }
            }
        }
    }

    #[test]
    fn payload_clone_is_cheap_reference() {
        let p = Packet::new(1, 0, tuple(), 1500, 0).with_payload(1400, 5, 0.0, &[]);
        let q = p.clone();
        // Clones share the underlying Arc'd buffer.
        assert_eq!(p.payload.as_ptr(), q.payload.as_ptr());
    }

    #[test]
    fn empty_payload_is_allocation_free_and_shared() {
        let a = Payload::empty();
        let b = Payload::from_vec(Vec::new());
        assert_eq!(a, b);
        assert!(a.as_slice().is_empty());
    }
}
