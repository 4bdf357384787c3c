//! FNV-1a digests of what a run produced. Two runs of one commit at one
//! seed must give the same digest; a speed-up must not change it.

use qi_ml::Dataset;
use qi_pfs::ops::RunTrace;

/// 64-bit FNV-1a over little-endian words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Everything a run observes: ops, RPCs, samples, completions, failed
/// ops, directives, end time and the rendered telemetry snapshot.
/// `events_processed` is left out: it counts the simulator's own
/// bookkeeping and differs by shard count while every observable
/// stays the same.
pub fn trace(t: &RunTrace) -> u64 {
    let mut h = Fnv::default();
    h.u64(observables(t));
    h.bytes(t.metrics.to_json().as_bytes());
    h.finish()
}

/// `trace` without the telemetry snapshot: what the simulated cluster
/// did, whatever was installed to watch it.
pub fn observables(t: &RunTrace) -> u64 {
    let mut h = Fnv::default();
    h.u64(t.ops.len() as u64);
    for o in &t.ops {
        h.u64(u64::from(o.token.app.0) << 32 | u64::from(o.token.rank));
        h.u64(o.token.seq);
        h.u64(o.kind as u64);
        h.u64(o.bytes);
        h.u64(o.issued.0);
        h.u64(o.completed.0);
    }
    h.u64(t.rpcs.len() as u64);
    for r in &t.rpcs {
        h.u64(u64::from(r.app.0) << 32 | u64::from(r.dev.0));
        h.u64(r.kind as u64);
        h.u64(r.bytes);
        h.u64(r.issued.0);
    }
    h.u64(t.samples.len() as u64);
    for s in t.samples.iter() {
        h.u64(s.time.0);
        h.u64(u64::from(s.dev.0));
        h.bytes(format!("{:?}", s.counters).as_bytes());
        h.u64(s.dirty_bytes);
        h.u64(s.throttled_now);
    }
    for c in &t.app_completion {
        h.u64(c.map_or(u64::MAX, |t| t.0));
    }
    h.u64(t.failed_ops.len() as u64);
    for d in &t.directives {
        h.bytes(format!("{d:?}").as_bytes());
    }
    h.u64(t.end.0);
    h.finish()
}

/// Feature bits and labels of a dataset, in sample order.
pub fn dataset(d: &Dataset) -> u64 {
    let mut h = Fnv::default();
    h.u64(d.n_servers as u64);
    h.u64(d.x.rows() as u64);
    for v in d.x.data() {
        h.bytes(&v.to_bits().to_le_bytes());
    }
    for &y in &d.y {
        h.u64(y as u64);
    }
    h.finish()
}

/// Fold an ordered list of words (digests, classes, counters) into one.
pub fn fold(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::default();
    for w in words {
        h.u64(w);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_published_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fold_depends_on_order_and_content() {
        assert_eq!(fold([1, 2, 3]), fold([1, 2, 3]));
        assert_ne!(fold([1, 2, 3]), fold([3, 2, 1]));
        assert_ne!(fold([1, 2, 3]), fold([1, 2]));
    }
}
