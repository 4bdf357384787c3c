//! Store-and-forward network model with per-node NIC serialization.
//!
//! Each node owns one NIC. A transfer occupies both the sender's and the
//! receiver's NIC for `bytes / bandwidth`, beginning when both are free;
//! delivery lands one propagation latency after the transfer ends. Because
//! the receiver NIC serializes, fan-in to a storage server saturates at
//! the NIC rate — the network-contention component of I/O interference.

use qi_simkit::rng::SimRng;
use qi_simkit::time::{SimDuration, SimTime};

use crate::config::NetConfig;
use crate::ids::NodeId;

/// What a link fault does to matching transfers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkFaultKind {
    /// Lose each matching request with this probability.
    Drop {
        /// Per-request loss probability in `[0, 1]`.
        prob: f64,
    },
    /// Add fixed extra one-way latency to matching transfers.
    Delay {
        /// Extra latency per transfer.
        delay: SimDuration,
    },
}

/// A fault rule on the network: applies to transfers whose endpoints
/// match the (optional) filters, within `[from, until)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFault {
    /// Source filter (`None` matches any sender).
    pub src: Option<NodeId>,
    /// Destination filter (`None` matches any receiver).
    pub dst: Option<NodeId>,
    /// Active-window start.
    pub from: SimTime,
    /// Active-window end.
    pub until: SimTime,
    /// Loss or latency.
    pub kind: LinkFaultKind,
}

impl LinkFault {
    fn matches(&self, now: SimTime, src: NodeId, dst: NodeId) -> bool {
        now >= self.from
            && now < self.until
            && self.src.is_none_or(|s| s == src)
            && self.dst.is_none_or(|d| d == dst)
    }
}

/// The fate of a request consulted against the active fault rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkFate {
    /// Delivered normally, with this much extra latency (zero when no
    /// delay rule matched).
    Deliver(SimDuration),
    /// Lost in transit: the transfer still occupies both NICs, but the
    /// message never arrives.
    Dropped,
}

/// Per-node NIC state, kept in one struct so a transfer touches a
/// single cache line per endpoint instead of three parallel vectors.
#[derive(Clone, Copy)]
struct Nic {
    /// Earliest time this NIC is free for the next transfer.
    free_at: SimTime,
    /// Cumulative bytes through the NIC (tx + rx), for utilisation stats.
    bytes: u64,
    /// Cumulative time the NIC spent occupied by a transfer.
    busy: SimDuration,
}

impl Nic {
    const IDLE: Nic = Nic {
        free_at: SimTime::ZERO,
        bytes: 0,
        busy: SimDuration::ZERO,
    };
}

/// The cluster network: one NIC per node.
#[derive(Clone)]
pub struct Network {
    cfg: NetConfig,
    nics: Vec<Nic>,
    /// Fault rules from the active `FaultPlan`, in insertion order.
    faults: Vec<LinkFault>,
}

impl Network {
    /// Network with `n_nodes` NICs, all idle.
    pub fn new(cfg: NetConfig, n_nodes: u32) -> Self {
        Network {
            cfg,
            nics: vec![Nic::IDLE; n_nodes as usize],
            faults: Vec::new(),
        }
    }

    /// Install a fault rule (from the cluster's `FaultPlan`).
    pub fn add_fault(&mut self, fault: LinkFault) {
        self.faults.push(fault);
    }

    /// Decide what happens to a request sent `src → dst` at `now`. The
    /// RNG is consulted only for matching `Drop` rules (in insertion
    /// order), so the draw sequence depends only on which rules match —
    /// not on unrelated traffic — and healthy runs, which ask for every
    /// request's fate too, never touch the fault RNG.
    pub fn fate(&self, now: SimTime, src: NodeId, dst: NodeId, rng: &mut SimRng) -> LinkFate {
        let mut extra = SimDuration::ZERO;
        for f in &self.faults {
            if !f.matches(now, src, dst) {
                continue;
            }
            match f.kind {
                LinkFaultKind::Drop { prob } => {
                    if rng.chance(prob) {
                        return LinkFate::Dropped;
                    }
                }
                LinkFaultKind::Delay { delay } => extra += delay,
            }
        }
        LinkFate::Deliver(extra)
    }

    /// The configured model parameters.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Total bytes moved through `node`'s NIC so far.
    pub fn nic_bytes(&self, node: NodeId) -> u64 {
        self.nics[node.0 as usize].bytes
    }

    /// Total time `node`'s NIC has been occupied by transfers. Both
    /// endpoints of a transfer accrue its full duration, so a NIC's
    /// utilisation over a run is `nic_busy / elapsed`.
    pub fn nic_busy(&self, node: NodeId) -> SimDuration {
        self.nics[node.0 as usize].busy
    }

    /// Reserve the path for a `payload`-byte message from `src` to `dst`
    /// starting no earlier than `now`; returns the delivery time.
    ///
    /// Must be called in non-decreasing `now` order (which the event loop
    /// guarantees); reservations are FIFO per NIC.
    pub fn send(&mut self, now: SimTime, src: NodeId, dst: NodeId, payload: u64) -> SimTime {
        assert_ne!(src, dst, "loopback messages need no network");
        let bytes = payload + self.cfg.header_bytes;
        let dur = SimDuration::from_secs_f64(bytes as f64 / self.cfg.bandwidth);
        let start = now
            .max(self.nics[src.0 as usize].free_at)
            .max(self.nics[dst.0 as usize].free_at);
        let end = start + dur;
        for node in [src, dst] {
            let nic = &mut self.nics[node.0 as usize];
            nic.free_at = end;
            nic.bytes += bytes;
            nic.busy += dur;
        }
        end + self.cfg.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(NetConfig::default(), 4)
    }

    #[test]
    fn transfer_time_includes_latency_and_header() {
        let mut n = net();
        let t = n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        let expect = (1_000_000.0 + 256.0) / 1.0e9 + 100e-6;
        assert!((t.as_secs_f64() - expect).abs() < 1e-9);
    }

    #[test]
    fn receiver_nic_serializes_fan_in() {
        let mut n = net();
        // Two different senders target node 3 at the same instant.
        let t1 = n.send(SimTime::ZERO, NodeId(0), NodeId(3), 1_000_000);
        let t2 = n.send(SimTime::ZERO, NodeId(1), NodeId(3), 1_000_000);
        // Second transfer waits for the receiver NIC.
        assert!(t2.as_secs_f64() > 2.0 * (t1.as_secs_f64() - 100e-6));
    }

    #[test]
    fn disjoint_pairs_run_concurrently() {
        let mut n = net();
        let t1 = n.send(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        let t2 = n.send(SimTime::ZERO, NodeId(2), NodeId(3), 1_000_000);
        assert_eq!(t1, t2);
    }

    #[test]
    fn sender_nic_serializes_back_to_back_sends() {
        let mut n = net();
        let t1 = n.send(SimTime::ZERO, NodeId(0), NodeId(1), 500_000);
        let t2 = n.send(SimTime::ZERO, NodeId(0), NodeId(2), 500_000);
        assert!(t2 > t1);
        assert_eq!(n.nic_bytes(NodeId(0)), 2 * (500_000 + 256));
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_is_rejected() {
        let mut n = net();
        n.send(SimTime::ZERO, NodeId(1), NodeId(1), 10);
    }

    #[test]
    fn fate_is_deliver_without_rules() {
        let n = net();
        let mut rng = SimRng::new(1);
        assert_eq!(
            n.fate(SimTime::ZERO, NodeId(0), NodeId(1), &mut rng),
            LinkFate::Deliver(SimDuration::ZERO)
        );
        assert_eq!(rng.unit(), SimRng::new(1).unit(), "no draw was made");
    }

    #[test]
    fn drop_rule_matches_window_and_endpoints() {
        let mut n = net();
        let t1 = SimTime::ZERO + SimDuration::from_secs(1);
        let t2 = SimTime::ZERO + SimDuration::from_secs(2);
        n.add_fault(LinkFault {
            src: None,
            dst: Some(NodeId(3)),
            from: t1,
            until: t2,
            kind: LinkFaultKind::Drop { prob: 1.0 },
        });
        let mut rng = SimRng::new(1);
        // Outside the window: deliver.
        assert_eq!(
            n.fate(SimTime::ZERO, NodeId(0), NodeId(3), &mut rng),
            LinkFate::Deliver(SimDuration::ZERO)
        );
        assert_eq!(
            n.fate(t2, NodeId(0), NodeId(3), &mut rng),
            LinkFate::Deliver(SimDuration::ZERO)
        );
        // Wrong destination: deliver.
        assert_eq!(
            n.fate(t1, NodeId(0), NodeId(2), &mut rng),
            LinkFate::Deliver(SimDuration::ZERO)
        );
        // Matching: always dropped at prob 1.0.
        assert_eq!(
            n.fate(t1, NodeId(0), NodeId(3), &mut rng),
            LinkFate::Dropped
        );
    }

    #[test]
    fn delay_rules_accumulate() {
        let mut n = net();
        let t0 = SimTime::ZERO;
        let t9 = t0 + SimDuration::from_secs(9);
        let d = SimDuration::from_micros(250);
        for _ in 0..2 {
            n.add_fault(LinkFault {
                src: Some(NodeId(0)),
                dst: None,
                from: t0,
                until: t9,
                kind: LinkFaultKind::Delay { delay: d },
            });
        }
        let mut rng = SimRng::new(1);
        assert_eq!(
            n.fate(t0, NodeId(0), NodeId(1), &mut rng),
            LinkFate::Deliver(d + d)
        );
    }
}
