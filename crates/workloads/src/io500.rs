//! The IO500 benchmark family (paper §II-A, Table I).
//!
//! Seven tasks reproducing the access-pattern geometry of the IO500
//! suite's IOR and MDTest configurations:
//!
//! | task | pattern |
//! |---|---|
//! | `ior-easy-write` | file-per-process, 1 MiB sequential writes |
//! | `ior-easy-read`  | file-per-process, 1 MiB sequential reads |
//! | `ior-hard-write` | one shared file, 47008 B strided writes |
//! | `ior-hard-read`  | one shared file, 47008 B strided reads |
//! | `mdt-easy-write` | empty-file creates in a private dir per rank |
//! | `mdt-hard-write` | creates + 3901 B bodies in ONE shared dir |
//! | `mdt-hard-read`  | open + 3901 B read of the shared-dir files |
//!
//! Sizes are scaled down from the real benchmark so a standalone instance
//! finishes in seconds of simulated time; the *shape* (sequential vs
//! strided, private vs shared directory, bulk vs tiny transfers) is what
//! drives interference, and that is preserved.

use qi_pfs::config::ClusterConfig;
use qi_pfs::ids::{AppId, DeviceId};
use qi_pfs::ops::IoOp;

use crate::common::{nsdir, nsfile, Placement, PrecreateFile, ScriptStep, Workload};

/// IOR transfer size for the "hard" tasks (the IO500-mandated odd size).
pub const IOR_HARD_XFER: u64 = 47_008;
/// File body written/read per file by the mdtest-hard tasks.
pub const MDT_HARD_BODY: u64 = 3_901;

/// File number of the single shared ior-hard file.
const SHARED_FILE: u64 = 1 << 32;
/// Directory number of the shared mdtest-hard directory.
const SHARED_DIR: u64 = 0;
/// Base for mdtest file numbers: `MDT_FILE_BASE + rank * 1e6 + i`.
const MDT_FILE_BASE: u64 = 1 << 33;

fn mdt_file(ns: AppId, rank: u32, i: u32) -> qi_pfs::ids::FileKey {
    nsfile(ns, MDT_FILE_BASE + rank as u64 * 1_000_000 + i as u64)
}

/// Place rank `r`'s file-per-process file on one OST, offset by the
/// application namespace so concurrent instances spread over all OSTs
/// the way Lustre's allocator would, while staying deterministic for a
/// given instance across baseline/interfered runs.
fn rank_ost(cfg: &ClusterConfig, ns: AppId, rank: u32) -> DeviceId {
    DeviceId((rank + ns.0) % cfg.n_osts())
}

/// `ior-easy`: file-per-process sequential I/O with large transfers.
#[derive(Clone, Debug)]
pub struct IorEasy {
    /// True for the write task, false for the read task.
    pub write: bool,
    /// Per-rank file size in bytes.
    pub file_bytes: u64,
    /// Transfer size in bytes.
    pub xfer: u64,
}

impl IorEasy {
    /// The IO500 `ior-easy-write` task at reproduction scale.
    pub fn write() -> Self {
        IorEasy {
            write: true,
            file_bytes: 256 * 1024 * 1024,
            xfer: 1024 * 1024,
        }
    }

    /// The IO500 `ior-easy-read` task at reproduction scale.
    pub fn read() -> Self {
        IorEasy {
            write: false,
            ..IorEasy::write()
        }
    }
}

impl Workload for IorEasy {
    fn name(&self) -> String {
        if self.write {
            "ior-easy-write".into()
        } else {
            "ior-easy-read".into()
        }
    }

    fn precreate(&self, ns: AppId, ranks: u32, cfg: &ClusterConfig) -> Vec<PrecreateFile> {
        // Both tasks get their file precreated with balanced placement:
        // the write task overwrites it (pre-allocated extents, like a
        // rewrite of an existing dataset), the read task reads it.
        (0..ranks)
            .map(|r| PrecreateFile {
                file: nsfile(ns, r as u64),
                len: self.file_bytes,
                placement: Placement::Explicit {
                    stripe_size: self.xfer,
                    first: rank_ost(cfg, ns, r),
                    count: 1,
                },
            })
            .collect()
    }

    fn script(
        &self,
        ns: AppId,
        rank: u32,
        _ranks: u32,
        _seed: u64,
        _cfg: &ClusterConfig,
    ) -> Vec<ScriptStep> {
        let file = nsfile(ns, rank as u64);
        let n = self.file_bytes / self.xfer;
        let mut steps = Vec::with_capacity(n as usize + 2);
        steps.push(ScriptStep::Op(IoOp::Open { file }));
        for i in 0..n {
            let op = if self.write {
                IoOp::Write {
                    file,
                    offset: i * self.xfer,
                    len: self.xfer,
                }
            } else {
                IoOp::Read {
                    file,
                    offset: i * self.xfer,
                    len: self.xfer,
                }
            };
            steps.push(ScriptStep::Op(op));
        }
        steps.push(ScriptStep::Op(IoOp::Close { file }));
        steps
    }
}

/// `ior-hard`: one shared wide-striped file, small strided transfers.
#[derive(Clone, Debug)]
pub struct IorHard {
    /// True for the write task, false for the read task.
    pub write: bool,
    /// Segments (strided transfers) per rank.
    pub segments: u64,
    /// Transfer size in bytes (IO500 uses 47008).
    pub xfer: u64,
}

impl IorHard {
    /// The IO500 `ior-hard-write` task at reproduction scale.
    pub fn write() -> Self {
        IorHard {
            write: true,
            segments: 600,
            xfer: IOR_HARD_XFER,
        }
    }

    /// The IO500 `ior-hard-read` task at reproduction scale.
    pub fn read() -> Self {
        IorHard {
            write: false,
            ..IorHard::write()
        }
    }

    fn shared_len(&self, ranks: u32) -> u64 {
        self.segments * ranks as u64 * self.xfer
    }
}

impl Workload for IorHard {
    fn name(&self) -> String {
        if self.write {
            "ior-hard-write".into()
        } else {
            "ior-hard-read".into()
        }
    }

    fn precreate(&self, ns: AppId, ranks: u32, cfg: &ClusterConfig) -> Vec<PrecreateFile> {
        vec![PrecreateFile {
            file: nsfile(ns, SHARED_FILE),
            len: self.shared_len(ranks),
            placement: Placement::Explicit {
                stripe_size: 1024 * 1024,
                first: DeviceId(0),
                count: cfg.n_osts(),
            },
        }]
    }

    fn script(
        &self,
        ns: AppId,
        rank: u32,
        ranks: u32,
        _seed: u64,
        _cfg: &ClusterConfig,
    ) -> Vec<ScriptStep> {
        let file = nsfile(ns, SHARED_FILE);
        let mut steps = Vec::with_capacity(self.segments as usize + 2);
        steps.push(ScriptStep::Op(IoOp::Open { file }));
        for seg in 0..self.segments {
            let offset = (seg * ranks as u64 + rank as u64) * self.xfer;
            let op = if self.write {
                IoOp::Write {
                    file,
                    offset,
                    len: self.xfer,
                }
            } else {
                IoOp::Read {
                    file,
                    offset,
                    len: self.xfer,
                }
            };
            steps.push(ScriptStep::Op(op));
        }
        steps.push(ScriptStep::Op(IoOp::Close { file }));
        steps
    }
}

/// `mdtest-easy-write`: empty-file creates in a private per-rank
/// directory — metadata throughput without directory contention.
#[derive(Clone, Debug)]
pub struct MdtEasyWrite {
    /// Files created per rank.
    pub files_per_rank: u32,
}

impl Default for MdtEasyWrite {
    fn default() -> Self {
        MdtEasyWrite {
            files_per_rank: 500,
        }
    }
}

impl Workload for MdtEasyWrite {
    fn name(&self) -> String {
        "mdt-easy-write".into()
    }

    fn script(
        &self,
        ns: AppId,
        rank: u32,
        _ranks: u32,
        _seed: u64,
        _cfg: &ClusterConfig,
    ) -> Vec<ScriptStep> {
        let dir = nsdir(ns, 100 + rank as u64);
        let mut steps = Vec::with_capacity(self.files_per_rank as usize + 1);
        steps.push(ScriptStep::Op(IoOp::Mkdir { dir }));
        for i in 0..self.files_per_rank {
            steps.push(ScriptStep::Op(IoOp::Create {
                file: mdt_file(ns, rank, i),
                dir,
                stripe: None,
            }));
        }
        steps
    }
}

/// `mdtest-hard`: every rank works in ONE shared directory; each file
/// carries a 3901-byte body (write task writes it, read task opens and
/// reads it back).
#[derive(Clone, Debug)]
pub struct MdtHard {
    /// True for the write task, false for the read task.
    pub write: bool,
    /// Files per rank.
    pub files_per_rank: u32,
    /// File body size in bytes (IO500 uses 3901).
    pub body: u64,
}

impl MdtHard {
    /// The IO500 `mdtest-hard-write` task at reproduction scale.
    pub fn write() -> Self {
        MdtHard {
            write: true,
            files_per_rank: 300,
            body: MDT_HARD_BODY,
        }
    }

    /// The IO500 `mdtest-hard-read` task at reproduction scale.
    pub fn read() -> Self {
        MdtHard {
            write: false,
            ..MdtHard::write()
        }
    }
}

impl Workload for MdtHard {
    fn name(&self) -> String {
        if self.write {
            "mdt-hard-write".into()
        } else {
            "mdt-hard-read".into()
        }
    }

    fn precreate(&self, ns: AppId, ranks: u32, _cfg: &ClusterConfig) -> Vec<PrecreateFile> {
        if self.write {
            return Vec::new();
        }
        // The read task needs the shared-directory files to exist.
        let mut out = Vec::new();
        for r in 0..ranks {
            for i in 0..self.files_per_rank {
                out.push(PrecreateFile {
                    file: mdt_file(ns, r, i),
                    len: self.body,
                    placement: Placement::RoundRobin(None),
                });
            }
        }
        out
    }

    fn script(
        &self,
        ns: AppId,
        rank: u32,
        _ranks: u32,
        _seed: u64,
        _cfg: &ClusterConfig,
    ) -> Vec<ScriptStep> {
        let dir = nsdir(ns, SHARED_DIR);
        let mut steps = Vec::with_capacity(self.files_per_rank as usize * 3);
        for i in 0..self.files_per_rank {
            let file = mdt_file(ns, rank, i);
            if self.write {
                steps.push(ScriptStep::Op(IoOp::Create {
                    file,
                    dir,
                    stripe: None,
                }));
                steps.push(ScriptStep::Op(IoOp::Write {
                    file,
                    offset: 0,
                    len: self.body,
                }));
                steps.push(ScriptStep::Op(IoOp::Close { file }));
            } else {
                steps.push(ScriptStep::Op(IoOp::Open { file }));
                steps.push(ScriptStep::Op(IoOp::Read {
                    file,
                    offset: 0,
                    len: self.body,
                }));
                steps.push(ScriptStep::Op(IoOp::Close { file }));
            }
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::deploy;
    use qi_pfs::cluster::Cluster;
    use qi_pfs::ops::OpKind;
    use qi_simkit::time::SimTime;
    use std::sync::Arc;

    fn run_alone(w: Arc<dyn Workload>, ranks: u32) -> qi_pfs::ops::RunTrace {
        let mut cl = Cluster::builder()
            .config(ClusterConfig::small())
            .seed(11)
            .build()
            .expect("valid test cluster");
        let nodes = cl.client_nodes();
        let app = deploy(&mut cl, &w, ranks, &nodes[..2], 3, false);
        let trace = cl.run_until_app(app, SimTime::from_secs(600));
        assert!(
            trace.completion_of(app).is_some(),
            "{} did not finish",
            w.name()
        );
        trace
    }

    #[test]
    fn ior_easy_write_is_sequential_per_rank() {
        let w = IorEasy {
            file_bytes: 8 * 1024 * 1024,
            ..IorEasy::write()
        };
        let script = w.script(AppId(0), 0, 2, 0, &ClusterConfig::small());
        // open + 8 writes + close
        assert_eq!(script.len(), 10);
        let mut prev_end = 0;
        for s in &script {
            if let ScriptStep::Op(IoOp::Write { offset, len, .. }) = s {
                assert_eq!(*offset, prev_end);
                prev_end = offset + len;
            }
        }
        assert_eq!(prev_end, 8 * 1024 * 1024);
    }

    #[test]
    fn ior_hard_offsets_are_disjoint_across_ranks() {
        let w = IorHard::write();
        let cfg = ClusterConfig::small();
        let mut seen = std::collections::HashSet::new();
        for r in 0..4 {
            for s in w.script(AppId(0), r, 4, 0, &cfg) {
                if let ScriptStep::Op(IoOp::Write { offset, .. }) = s {
                    assert!(seen.insert(offset), "offset {offset} written twice");
                }
            }
        }
        assert_eq!(seen.len(), 4 * w.segments as usize);
    }

    #[test]
    fn ior_easy_runs_to_completion() {
        let w: Arc<dyn Workload> = Arc::new(IorEasy {
            file_bytes: 16 * 1024 * 1024,
            ..IorEasy::write()
        });
        let trace = run_alone(w, 2);
        let writes = trace.ops.iter().filter(|o| o.kind == OpKind::Write).count();
        assert_eq!(writes, 2 * 16);
    }

    #[test]
    fn ior_easy_read_slower_than_cached_write() {
        // Reads hit the disk; writes are absorbed by the cache, so the
        // standalone read task must take longer.
        let wr: Arc<dyn Workload> = Arc::new(IorEasy {
            file_bytes: 16 * 1024 * 1024,
            ..IorEasy::write()
        });
        let rd: Arc<dyn Workload> = Arc::new(IorEasy {
            file_bytes: 16 * 1024 * 1024,
            ..IorEasy::read()
        });
        let tw = run_alone(wr, 2).end.as_secs_f64();
        let tr = run_alone(rd, 2).end.as_secs_f64();
        assert!(tr > tw, "read {tr} not slower than cached write {tw}");
    }

    #[test]
    fn mdt_easy_creates_in_private_dirs() {
        let w = MdtEasyWrite { files_per_rank: 10 };
        let cfg = ClusterConfig::small();
        let s0 = w.script(AppId(0), 0, 2, 0, &cfg);
        let s1 = w.script(AppId(0), 1, 2, 0, &cfg);
        let dir_of = |s: &[ScriptStep]| match &s[1] {
            ScriptStep::Op(IoOp::Create { dir, .. }) => *dir,
            other => panic!("expected create, got {other:?}"),
        };
        assert_ne!(dir_of(&s0), dir_of(&s1), "mdt-easy dirs must be private");
    }

    #[test]
    fn mdt_hard_shares_one_dir_and_writes_bodies() {
        let w = MdtHard::write();
        let cfg = ClusterConfig::small();
        let s0 = w.script(AppId(0), 0, 2, 0, &cfg);
        let s1 = w.script(AppId(0), 1, 2, 0, &cfg);
        let dir_of = |s: &[ScriptStep]| match &s[0] {
            ScriptStep::Op(IoOp::Create { dir, .. }) => *dir,
            other => panic!("expected create, got {other:?}"),
        };
        assert_eq!(dir_of(&s0), dir_of(&s1), "mdt-hard dir must be shared");
        assert!(s0.iter().any(|s| matches!(
            s,
            ScriptStep::Op(IoOp::Write { len, .. }) if *len == MDT_HARD_BODY
        )));
    }

    #[test]
    fn mdt_hard_read_precreates_bodies() {
        let w = MdtHard::read();
        let pre = w.precreate(AppId(0), 2, &ClusterConfig::small());
        assert_eq!(pre.len(), 2 * w.files_per_rank as usize);
        assert!(pre.iter().all(|p| p.len == MDT_HARD_BODY));
    }

    #[test]
    fn mdt_tasks_complete() {
        let w: Arc<dyn Workload> = Arc::new(MdtHard {
            files_per_rank: 20,
            ..MdtHard::write()
        });
        let trace = run_alone(w, 2);
        let creates = trace
            .ops
            .iter()
            .filter(|o| o.kind == OpKind::Create)
            .count();
        assert_eq!(creates, 40);
    }
}
