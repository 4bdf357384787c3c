//! Cluster, device, and network configuration.
//!
//! Defaults mirror the paper's evaluation testbed (§IV): 11 nodes — 7
//! clients, 3 OSS with 2 OSTs each, and 1 combined MGS/MDS node — with
//! 7200 rpm SATA disks and ~1 GB/s network interfaces.

use qi_simkit::event::QueueBackend;

use crate::ids::{DeviceId, NodeId};
use qi_simkit::time::SimDuration;

/// Bytes per simulated disk sector.
pub const SECTOR_SIZE: u64 = 512;

/// Rotational-disk service model parameters.
#[derive(Clone, Debug)]
pub struct DiskConfig {
    /// Sustained media transfer rate in bytes/second.
    pub media_rate: f64,
    /// Cost of the shortest repositioning (track-to-track + rotational).
    pub min_seek: SimDuration,
    /// Cost of a full-stroke seek (plus average rotational latency).
    pub max_seek: SimDuration,
    /// Addressable capacity of the device, in sectors.
    pub capacity_sectors: u64,
    /// Fixed per-request controller/command overhead.
    pub command_overhead: SimDuration,
}

impl DiskConfig {
    /// A 1 TB 7200 rpm SATA data disk (OST backing store).
    pub fn sata_7200_ost() -> Self {
        DiskConfig {
            media_rate: 150.0e6,
            // Any non-contiguous access pays at least the average
            // rotational latency of a 7200 rpm spindle (~4.2 ms) plus a
            // short head move; a full-stroke seek adds ~8 ms more.
            min_seek: SimDuration::from_micros(4500),
            max_seek: SimDuration::from_millis(12),
            capacity_sectors: 1_000_000_000_000 / SECTOR_SIZE,
            command_overhead: SimDuration::from_micros(100),
        }
    }

    /// The MDT backing disk: same hardware, smaller journal-dominated
    /// working set.
    pub fn sata_7200_mdt() -> Self {
        DiskConfig {
            capacity_sectors: 200_000_000_000 / SECTOR_SIZE,
            ..DiskConfig::sata_7200_ost()
        }
    }
}

/// Block-layer request queue policy (deadline-like, read priority).
#[derive(Clone, Debug)]
pub struct QueueConfig {
    /// Largest request (in sectors) that merging may produce.
    pub max_merge_sectors: u64,
    /// How many consecutive foreground (read) dispatches may pass before a
    /// queued background (flush) request is forced through.
    pub writes_starved: u32,
    /// How many queued requests the merge scan examines.
    pub merge_scan_depth: usize,
    /// Anticipatory idling: after a foreground (synchronous) request
    /// completes and no foreground work is queued, the device waits this
    /// long for the next synchronous request before falling back to
    /// background flush work. This is what keeps streaming readers
    /// nearly immune to concurrent bulk writers (Table I row 1).
    pub idle_wait: SimDuration,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            max_merge_sectors: 4 * 1024 * 1024 / SECTOR_SIZE,
            writes_starved: 12,
            merge_scan_depth: 64,
            idle_wait: SimDuration::from_millis(3),
        }
    }
}

/// OSS server-side write-back cache (per OST).
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Dirty-data limit; writers throttle once this much is unflushed.
    pub dirty_limit: u64,
    /// Memory-copy bandwidth for absorbing a write into cache (bytes/s).
    pub absorb_rate: f64,
    /// When `false` every write is synchronous (used for the MDT journal).
    pub write_back: bool,
    /// Objects up to this size stay resident in the server page cache
    /// once touched; reads of resident objects never reach the disk.
    /// This is why mdtest-hard-read's 3901-byte file bodies are immune
    /// to concurrent bulk I/O in the paper's Table I (row 3).
    pub small_object_max: u64,
    /// Total bytes of small objects kept resident per OST (LRU beyond).
    pub read_cache_budget: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            dirty_limit: 256 * 1024 * 1024,
            absorb_rate: 2.0e9,
            write_back: true,
            small_object_max: 256 * 1024,
            read_cache_budget: 1024 * 1024 * 1024,
        }
    }
}

/// Network model parameters.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Per-NIC bandwidth in bytes/second (paper: ~1 GB/s interfaces).
    pub bandwidth: f64,
    /// One-way propagation + stack latency.
    pub latency: SimDuration,
    /// Header/framing bytes added to every message.
    pub header_bytes: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            bandwidth: 1.0e9,
            latency: SimDuration::from_micros(100),
            header_bytes: 256,
        }
    }
}

/// Metadata service parameters.
#[derive(Clone, Debug)]
pub struct MdsConfig {
    /// Serial CPU cost charged per lookup-class request (open/stat/close).
    pub cpu_per_op: SimDuration,
    /// Serial CPU cost charged per namespace mutation (create/unlink/
    /// mkdir) — several times a lookup, which is why create storms
    /// saturate an MDS long before lookups do.
    pub cpu_per_mutation: SimDuration,
    /// Probability that a lookup (open/stat) hits the MDS cache and avoids
    /// a device read, *in addition to* the deterministic inode LRU cache
    /// (models dcache effects for files the LRU has never seen).
    pub lookup_cache_hit: f64,
    /// Entries in the MDS inode LRU cache: the first lookup of a file
    /// misses to the MDT, subsequent lookups hit until evicted.
    pub inode_cache_entries: usize,
    /// Bytes journalled per namespace mutation (create/unlink/mkdir).
    pub journal_record_bytes: u64,
    /// Size of the circular journal region on the MDT, in bytes.
    pub journal_region_bytes: u64,
    /// Cost of bouncing a directory lock between clients: when a
    /// namespace mutation comes from a different client than the previous
    /// holder, the old grant must be revoked (a client round-trip) before
    /// the mutation proceeds — all while the directory stays locked. This
    /// is what makes shared-directory create storms (mdtest-hard) so much
    /// slower than private-directory ones (mdtest-easy).
    pub lock_revoke: SimDuration,
}

impl Default for MdsConfig {
    fn default() -> Self {
        MdsConfig {
            cpu_per_op: SimDuration::from_micros(40),
            cpu_per_mutation: SimDuration::from_micros(150),
            lookup_cache_hit: 0.5,
            inode_cache_entries: 65_536,
            journal_record_bytes: 4096,
            journal_region_bytes: 1024 * 1024 * 1024,
            lock_revoke: SimDuration::from_micros(400),
        }
    }
}

/// OSS service parameters.
#[derive(Clone, Debug)]
pub struct OssConfig {
    /// Serial CPU cost charged per data RPC on the OSS node.
    pub cpu_per_rpc: SimDuration,
}

impl Default for OssConfig {
    fn default() -> Self {
        OssConfig {
            cpu_per_rpc: SimDuration::from_micros(25),
        }
    }
}

/// Default stripe geometry for newly created files.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StripeConfig {
    /// Stripe unit in bytes.
    pub stripe_size: u64,
    /// Number of OSTs a file is striped across.
    pub stripe_count: u32,
}

impl Default for StripeConfig {
    fn default() -> Self {
        StripeConfig {
            stripe_size: 1024 * 1024,
            stripe_count: 1,
        }
    }
}

/// Full cluster topology and hardware description.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of client (compute) nodes.
    pub client_nodes: u32,
    /// Number of object storage server nodes.
    pub oss_nodes: u32,
    /// OSTs attached to each OSS node.
    pub osts_per_oss: u32,
    /// OST backing-disk model.
    pub ost_disk: DiskConfig,
    /// MDT backing-disk model.
    pub mdt_disk: DiskConfig,
    /// Block queue policy (shared by OSTs and the MDT).
    pub queue: QueueConfig,
    /// OSS write-back cache policy.
    pub cache: CacheConfig,
    /// Network model.
    pub net: NetConfig,
    /// Metadata service model.
    pub mds: MdsConfig,
    /// OSS CPU model.
    pub oss: OssConfig,
    /// Default stripe geometry.
    pub stripe: StripeConfig,
    /// Interval between server-side monitor samples (paper: 1 s).
    pub sample_interval: SimDuration,
    /// Test-only: which event queue the simulation loop runs on. The
    /// differential replay harness sets `Reference` to drive whole runs
    /// through the naive queue double and compare traces byte for byte;
    /// everything else leaves the packed default.
    pub event_queue: QueueBackend,
    /// Accepted and ignored for every value, 0 included: the simulator
    /// has one sequential event loop, so every value runs the same
    /// events and yields the same [`RunTrace`](crate::ops::RunTrace).
    /// Kept so configurations that set it still build; parallelism
    /// lives across independent runs, not inside one.
    pub sim_shards: u32,
}

impl Default for ClusterConfig {
    /// The paper's testbed: 7 clients, 3 OSS × 2 OST, 1 MDS.
    fn default() -> Self {
        ClusterConfig {
            client_nodes: 7,
            oss_nodes: 3,
            osts_per_oss: 2,
            ost_disk: DiskConfig::sata_7200_ost(),
            mdt_disk: DiskConfig::sata_7200_mdt(),
            queue: QueueConfig::default(),
            cache: CacheConfig::default(),
            net: NetConfig::default(),
            mds: MdsConfig::default(),
            oss: OssConfig::default(),
            stripe: StripeConfig::default(),
            sample_interval: SimDuration::from_secs(1),
            event_queue: QueueBackend::Packed,
            sim_shards: 1,
        }
    }
}

impl ClusterConfig {
    /// A reduced-size cluster for fast unit/integration tests:
    /// 4 clients, 2 OSS × 2 OST, smaller cache.
    pub fn small() -> Self {
        ClusterConfig {
            client_nodes: 4,
            oss_nodes: 2,
            osts_per_oss: 2,
            cache: CacheConfig {
                dirty_limit: 64 * 1024 * 1024,
                ..CacheConfig::default()
            },
            ..ClusterConfig::default()
        }
    }

    /// Total number of OSTs in the cluster.
    pub fn n_osts(&self) -> u32 {
        self.oss_nodes * self.osts_per_oss
    }

    /// Total number of storage devices (OSTs + the MDT).
    pub fn n_devices(&self) -> u32 {
        self.n_osts() + 1
    }

    /// Total number of nodes (clients + OSS + MDS).
    pub fn n_nodes(&self) -> u32 {
        self.client_nodes + self.oss_nodes + 1
    }

    /// The node hosting device `dev`. Nodes are numbered clients, then
    /// OSS, then the MDS; OST `i` sits on OSS `i / osts_per_oss`, so the
    /// MDT (device `n_osts()`) lands on the MDS node.
    #[inline]
    pub fn node_of(&self, dev: DeviceId) -> NodeId {
        NodeId(self.client_nodes + dev.0 / self.osts_per_oss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_testbed() {
        let c = ClusterConfig::default();
        assert_eq!(c.n_nodes(), 11);
        assert_eq!(c.n_osts(), 6);
        assert_eq!(c.n_devices(), 7);
    }

    #[test]
    fn small_cluster_is_consistent() {
        let c = ClusterConfig::small();
        assert_eq!(c.n_osts(), 4);
        assert_eq!(c.n_nodes(), 7);
        // Clients 0..4, OSS 4 and 5 with two OSTs each, MDS 6.
        let nodes: Vec<u32> = (0..c.n_devices())
            .map(|d| c.node_of(DeviceId(d)).0)
            .collect();
        assert_eq!(nodes, [4, 4, 5, 5, 6]);
    }

    #[test]
    fn disk_capacity_in_sectors() {
        let d = DiskConfig::sata_7200_ost();
        assert_eq!(d.capacity_sectors * SECTOR_SIZE, 1_000_000_000_000);
    }
}
