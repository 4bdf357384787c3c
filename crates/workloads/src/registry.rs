//! A name-addressable registry of every workload in the suite, used by
//! the dataset-generation configs and the experiment harnesses.

use std::sync::Arc;

use crate::apps::{AmrexProxy, EnzoProxy, OpenPmdProxy};
use crate::common::Workload;
use crate::dlio::{DlioBert, DlioUnet3d};
use crate::io500::{IorEasy, IorHard, MdtEasyWrite, MdtHard};

/// Every workload the reproduction ships, by stable name.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum WorkloadKind {
    /// IO500 `ior-easy-read`.
    IorEasyRead,
    /// IO500 `ior-hard-read`.
    IorHardRead,
    /// IO500 `mdtest-hard-read`.
    MdtHardRead,
    /// IO500 `ior-easy-write`.
    IorEasyWrite,
    /// IO500 `ior-hard-write`.
    IorHardWrite,
    /// IO500 `mdtest-easy-write`.
    MdtEasyWrite,
    /// IO500 `mdtest-hard-write`.
    MdtHardWrite,
    /// DLIO Unet3D data loader.
    DlioUnet3d,
    /// DLIO BERT data loader.
    DlioBert,
    /// AMReX application proxy.
    Amrex,
    /// Enzo application proxy.
    Enzo,
    /// OpenPMD application proxy.
    OpenPmd,
}

impl WorkloadKind {
    /// The seven IO500 tasks, in the paper's Table I row/column order.
    pub const IO500: [WorkloadKind; 7] = [
        WorkloadKind::IorEasyRead,
        WorkloadKind::IorHardRead,
        WorkloadKind::MdtHardRead,
        WorkloadKind::IorEasyWrite,
        WorkloadKind::IorHardWrite,
        WorkloadKind::MdtEasyWrite,
        WorkloadKind::MdtHardWrite,
    ];

    /// The two DLIO configurations.
    pub const DLIO: [WorkloadKind; 2] = [WorkloadKind::DlioUnet3d, WorkloadKind::DlioBert];

    /// The three application proxies.
    pub const APPS: [WorkloadKind; 3] = [
        WorkloadKind::Amrex,
        WorkloadKind::Enzo,
        WorkloadKind::OpenPmd,
    ];

    /// Stable name (matches the paper's labels).
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::IorEasyRead => "ior-easy-read",
            WorkloadKind::IorHardRead => "ior-hard-read",
            WorkloadKind::MdtHardRead => "mdt-hard-read",
            WorkloadKind::IorEasyWrite => "ior-easy-write",
            WorkloadKind::IorHardWrite => "ior-hard-write",
            WorkloadKind::MdtEasyWrite => "mdt-easy-write",
            WorkloadKind::MdtHardWrite => "mdt-hard-write",
            WorkloadKind::DlioUnet3d => "dlio-unet3d",
            WorkloadKind::DlioBert => "dlio-bert",
            WorkloadKind::Amrex => "amrex",
            WorkloadKind::Enzo => "enzo",
            WorkloadKind::OpenPmd => "openpmd",
        }
    }

    /// Build the workload at its default reproduction scale.
    pub fn build(self) -> Arc<dyn Workload> {
        match self {
            WorkloadKind::IorEasyRead => Arc::new(IorEasy::read()),
            WorkloadKind::IorHardRead => Arc::new(IorHard::read()),
            WorkloadKind::MdtHardRead => Arc::new(MdtHard::read()),
            WorkloadKind::IorEasyWrite => Arc::new(IorEasy::write()),
            WorkloadKind::IorHardWrite => Arc::new(IorHard::write()),
            WorkloadKind::MdtEasyWrite => Arc::new(MdtEasyWrite::default()),
            WorkloadKind::MdtHardWrite => Arc::new(MdtHard::write()),
            WorkloadKind::DlioUnet3d => Arc::new(DlioUnet3d::default()),
            WorkloadKind::DlioBert => Arc::new(DlioBert::default()),
            WorkloadKind::Amrex => Arc::new(AmrexProxy::default()),
            WorkloadKind::Enzo => Arc::new(EnzoProxy::default()),
            WorkloadKind::OpenPmd => Arc::new(OpenPmdProxy::default()),
        }
    }

    /// Build a reduced-scale variant for fast tests and CI.
    pub fn build_small(self) -> Arc<dyn Workload> {
        match self {
            WorkloadKind::IorEasyRead => Arc::new(IorEasy {
                file_bytes: 32 * 1024 * 1024,
                ..IorEasy::read()
            }),
            WorkloadKind::IorHardRead => Arc::new(IorHard {
                segments: 120,
                ..IorHard::read()
            }),
            WorkloadKind::MdtHardRead => Arc::new(MdtHard {
                files_per_rank: 60,
                ..MdtHard::read()
            }),
            WorkloadKind::IorEasyWrite => Arc::new(IorEasy {
                file_bytes: 32 * 1024 * 1024,
                ..IorEasy::write()
            }),
            WorkloadKind::IorHardWrite => Arc::new(IorHard {
                segments: 120,
                ..IorHard::write()
            }),
            WorkloadKind::MdtEasyWrite => Arc::new(MdtEasyWrite {
                files_per_rank: 100,
            }),
            WorkloadKind::MdtHardWrite => Arc::new(MdtHard {
                files_per_rank: 60,
                ..MdtHard::write()
            }),
            WorkloadKind::DlioUnet3d => Arc::new(DlioUnet3d {
                steps: 8,
                dataset_files: 16,
                sample_bytes: 2 * 1024 * 1024,
                ..DlioUnet3d::default()
            }),
            WorkloadKind::DlioBert => Arc::new(DlioBert {
                steps: 60,
                ..DlioBert::default()
            }),
            WorkloadKind::Amrex => Arc::new(AmrexProxy {
                cycles: 6,
                plot_every: 2,
                dump_bytes: 16 * 1024 * 1024,
                ..AmrexProxy::default()
            }),
            WorkloadKind::Enzo => Arc::new(EnzoProxy {
                cycles: 10,
                ic_bytes: 8 * 1024 * 1024,
                ..EnzoProxy::default()
            }),
            WorkloadKind::OpenPmd => Arc::new(OpenPmdProxy {
                iterations: 6,
                ..OpenPmdProxy::default()
            }),
        }
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kind sits in exactly one family. The match has no
    /// wildcard, so a new variant does not compile until it is placed.
    #[test]
    fn every_kind_is_in_exactly_one_family() {
        let family = |k: WorkloadKind| match k {
            WorkloadKind::IorEasyRead
            | WorkloadKind::IorHardRead
            | WorkloadKind::MdtHardRead
            | WorkloadKind::IorEasyWrite
            | WorkloadKind::IorHardWrite
            | WorkloadKind::MdtEasyWrite
            | WorkloadKind::MdtHardWrite => &WorkloadKind::IO500[..],
            WorkloadKind::DlioUnet3d | WorkloadKind::DlioBert => &WorkloadKind::DLIO[..],
            WorkloadKind::Amrex | WorkloadKind::Enzo | WorkloadKind::OpenPmd => {
                &WorkloadKind::APPS[..]
            }
        };
        let families = [
            &WorkloadKind::IO500[..],
            &WorkloadKind::DLIO[..],
            &WorkloadKind::APPS[..],
        ];
        for members in families {
            for &k in members {
                assert_eq!(family(k), members, "{k} is listed outside its family");
            }
        }
        // One listing per variant: the match above has twelve.
        let listed: usize = families.iter().map(|f| f.len()).sum();
        assert_eq!(listed, 12);
    }

    #[test]
    fn build_matches_name() {
        for k in WorkloadKind::IO500 {
            assert_eq!(k.build().name(), k.name());
            assert_eq!(k.build_small().name(), k.name());
        }
    }

    #[test]
    fn io500_order_matches_table_one() {
        let names: Vec<&str> = WorkloadKind::IO500.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec![
                "ior-easy-read",
                "ior-hard-read",
                "mdt-hard-read",
                "ior-easy-write",
                "ior-hard-write",
                "mdt-easy-write",
                "mdt-hard-write",
            ]
        );
    }
}
