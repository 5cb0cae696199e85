//! Deep packet inspection with an Aho–Corasick multi-pattern automaton.
//!
//! The payload-touching NF: cycle cost is per-byte, so packet size (not
//! just packet rate) drives the work — this is what makes DPI the
//! classic candidate for FPGA/SmartNIC offload (cf. Pigasus, the paper's reference 42).

use super::{FailMode, NetworkFunction, NfVerdict};
use crate::packet::Packet;
use std::collections::{BTreeMap, VecDeque};

/// Cycles per payload byte scanned (automaton transition + load).
pub const PER_BYTE_CYCLES: u64 = 4;
/// Fixed per-packet cycles (setup, verdict bookkeeping).
pub const BASE_CYCLES: u64 = 300;

/// What to do when a pattern matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchPolicy {
    /// Intrusion *prevention*: drop matching packets.
    Block,
    /// Intrusion *detection*: count but forward.
    Alert,
}

/// A classical Aho–Corasick automaton over byte patterns, folded into
/// a dense DFA: one 256-wide row of next states per automaton state.
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    // delta[state * 256 + byte] -> next state * 256: row-major, one
    // 256-wide row per state, failure links already folded in. States
    // are stored premultiplied by 256 (as their row offset), so the scan
    // is one add and one load per byte.
    delta: Vec<u32>,
    // number of patterns ending at each state (via output links).
    out: Vec<u32>,
}

impl AhoCorasick {
    /// Builds the automaton from the given patterns (empty patterns are
    /// ignored).
    pub fn build(patterns: &[&[u8]]) -> Self {
        // goto function: per-state byte -> state. Ordered map so state
        // numbering and the BFS over transitions are insertion-order
        // independent and fully deterministic.
        let mut goto_: Vec<BTreeMap<u8, u32>> = vec![BTreeMap::new()];
        let mut out: Vec<u32> = vec![0];

        for pat in patterns {
            if pat.is_empty() {
                continue;
            }
            let mut state = 0u32;
            for &b in *pat {
                let next = goto_[state as usize].get(&b).copied();
                state = match next {
                    Some(s) => s,
                    None => {
                        goto_.push(BTreeMap::new());
                        out.push(0);
                        let s = (goto_.len() - 1) as u32;
                        goto_[state as usize].insert(b, s);
                        s
                    }
                };
            }
            out[state as usize] += 1;
        }

        // BFS from the root. A state's failure target is strictly
        // shallower, so its dense row is complete before the state's own
        // row copies from it: a missing goto edge takes the failure
        // target's transition, and the root's missing edges loop home.
        assert!(goto_.len() <= 1 << 24, "row offsets of more than 2^24 states overflow u32");
        let mut delta = vec![0u32; goto_.len() * 256];
        let mut fail = vec![0u32; goto_.len()];
        for (&b, &t) in &goto_[0] {
            delta[usize::from(b)] = t * 256;
        }
        let mut queue: VecDeque<u32> = goto_[0].values().copied().collect();
        while let Some(s) = queue.pop_front() {
            let (row, fail_row) = (s as usize * 256, fail[s as usize] as usize * 256);
            delta.copy_within(fail_row..fail_row + 256, row);
            for (&b, &t) in &goto_[s as usize] {
                delta[row + usize::from(b)] = t * 256;
                fail[t as usize] = delta[fail_row + usize::from(b)] / 256;
                out[t as usize] += out[fail[t as usize] as usize];
                queue.push_back(t);
            }
        }
        AhoCorasick { delta, out }
    }

    /// Number of automaton states.
    pub fn states(&self) -> usize {
        self.out.len()
    }

    /// Counts pattern occurrences in `haystack`.
    pub fn count_matches(&self, haystack: &[u8]) -> u64 {
        let mut row = 0usize;
        let mut matches = 0u64;
        for &b in haystack {
            row = self.delta[row + usize::from(b)] as usize;
            matches += u64::from(self.out[row / 256]);
        }
        matches
    }
}

/// The DPI network function.
pub struct Dpi {
    automaton: AhoCorasick,
    policy: MatchPolicy,
    alerts: u64,
    fail_mode: FailMode,
}

impl Dpi {
    /// Builds a DPI engine for the given signature set and match policy.
    /// Fails closed on corrupted packets: a payload that cannot be
    /// scanned cannot be cleared.
    pub fn new(patterns: &[&[u8]], policy: MatchPolicy) -> Self {
        Dpi {
            automaton: AhoCorasick::build(patterns),
            policy,
            alerts: 0,
            fail_mode: FailMode::Closed,
        }
    }

    /// Overrides the degradation policy for corrupted packets.
    pub fn with_fail_mode(mut self, mode: FailMode) -> Self {
        self.fail_mode = mode;
        self
    }

    /// Total alerts raised so far.
    pub fn alerts(&self) -> u64 {
        self.alerts
    }

    /// A small representative signature set for experiments.
    pub fn demo_signatures() -> Vec<&'static [u8]> {
        vec![
            b"EVILPATTERN".as_slice(),
            b"DROP TABLE".as_slice(),
            b"/etc/passwd".as_slice(),
            b"\x90\x90\x90\x90".as_slice(),
            b"cmd.exe".as_slice(),
        ]
    }
}

impl NetworkFunction for Dpi {
    fn name(&self) -> &'static str {
        "dpi"
    }

    fn process(&mut self, pkt: &Packet) -> (NfVerdict, u64) {
        let cycles = BASE_CYCLES + pkt.payload.len() as u64 * PER_BYTE_CYCLES;
        let matches = self.automaton.count_matches(&pkt.payload);
        if matches > 0 {
            self.alerts += matches;
            match self.policy {
                MatchPolicy::Block => (NfVerdict::Drop, cycles),
                MatchPolicy::Alert => (NfVerdict::Forward, cycles),
            }
        } else {
            (NfVerdict::Forward, cycles)
        }
    }

    fn fail_mode(&self) -> FailMode {
        self.fail_mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Payload;
    use apples_workload::FiveTuple;

    fn pkt_with(payload: &[u8]) -> Packet {
        let mut p = Packet::new(
            1,
            0,
            FiveTuple { src_ip: 1, dst_ip: 2, src_port: 3, dst_port: 4, proto: 6 },
            1500,
            0,
        );
        p.payload = Payload::copy_from_slice(payload);
        p
    }

    #[test]
    fn finds_single_pattern() {
        let ac = AhoCorasick::build(&[b"abc"]);
        assert_eq!(ac.count_matches(b"xxabcxxabc"), 2);
        assert_eq!(ac.count_matches(b"xxabxcx"), 0);
    }

    #[test]
    fn finds_overlapping_patterns() {
        let ac = AhoCorasick::build(&[b"he", b"she", b"his", b"hers"]);
        // "ushers" contains she, he, hers.
        assert_eq!(ac.count_matches(b"ushers"), 3);
    }

    #[test]
    fn suffix_patterns_via_failure_links() {
        let ac = AhoCorasick::build(&[b"abcd", b"bcd", b"cd"]);
        assert_eq!(ac.count_matches(b"abcd"), 3);
    }

    #[test]
    fn empty_patterns_and_haystacks() {
        let ac = AhoCorasick::build(&[b"".as_slice(), b"x".as_slice()]);
        assert_eq!(ac.count_matches(b""), 0);
        assert_eq!(ac.count_matches(b"x"), 1);
    }

    #[test]
    fn repeated_pattern_counts_every_occurrence() {
        let ac = AhoCorasick::build(&[b"aa"]);
        assert_eq!(ac.count_matches(b"aaaa"), 3);
    }

    #[test]
    fn block_policy_drops_alert_policy_forwards() {
        let mut ips = Dpi::new(&[b"EVIL"], MatchPolicy::Block);
        let (v, _) = ips.process(&pkt_with(b"xxEVILxx"));
        assert_eq!(v, NfVerdict::Drop);
        assert_eq!(ips.alerts(), 1);

        let mut ids = Dpi::new(&[b"EVIL"], MatchPolicy::Alert);
        let (v, _) = ids.process(&pkt_with(b"xxEVILxx"));
        assert_eq!(v, NfVerdict::Forward);
        assert_eq!(ids.alerts(), 1);
    }

    #[test]
    fn cycle_cost_scales_with_payload_length() {
        let mut dpi = Dpi::new(&[b"EVIL"], MatchPolicy::Alert);
        let (_, c_small) = dpi.process(&pkt_with(&[b'a'; 100]));
        let (_, c_large) = dpi.process(&pkt_with(&[b'a'; 1400]));
        assert_eq!(c_small, BASE_CYCLES + 100 * PER_BYTE_CYCLES);
        assert_eq!(c_large, BASE_CYCLES + 1400 * PER_BYTE_CYCLES);
    }

    #[test]
    fn demo_signatures_compile() {
        let sigs = Dpi::demo_signatures();
        let ac = AhoCorasick::build(&sigs);
        assert!(ac.states() > sigs.len());
        // The root plus one state per signature byte: no two share a prefix.
        assert_eq!(ac.states(), 1 + sigs.iter().map(|s| s.len()).sum::<usize>());
        assert_eq!(ac.count_matches(b"please DROP TABLE users"), 1);
    }
}
