//! Criterion micro-benchmarks for the substrate costs: the event engine,
//! the device model, the network, the monitors, and the neural network.
//! These quantify the paper's challenge 3 — keeping monitoring and
//! inference cheap enough for "real-time ... capabilities at the scale
//! of HPC systems".

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use qi_ml::data::Dataset;
use qi_ml::matrix::Matrix;
use qi_ml::model::KernelNet;
use qi_ml::train::{train, TrainConfig};
use qi_monitor::client::client_windows;
use qi_monitor::window::WindowConfig;
use qi_pfs::cluster::Cluster;
use qi_pfs::config::{ClusterConfig, DiskConfig, QueueConfig};
use qi_pfs::disk::Disk;
use qi_pfs::ids::{AppId, FileKey, NodeId, OpToken};
use qi_pfs::net::Network;
use qi_pfs::ops::{IoOp, OpKind, OpRecord, ProgramStep, RankProgram, RunTrace};
use qi_pfs::queue::{BlockDevice, ReqKind};
use qi_simkit::event::EventQueue;
use qi_simkit::time::{SimDuration, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("simkit/event_queue_schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule(SimTime(i * 37 % 50_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
}

fn bench_device(c: &mut Criterion) {
    c.bench_function("pfs/device_submit_complete_1k", |b| {
        b.iter(|| {
            let mut d: BlockDevice<u32> = BlockDevice::new(
                QueueConfig::default(),
                Disk::new(DiskConfig::sata_7200_ost()),
            );
            let mut t = SimTime::ZERO;
            let mut pending = Vec::new();
            let mut done = Vec::new();
            for i in 0..1_000u64 {
                let kind = if i % 3 == 0 {
                    ReqKind::Write
                } else {
                    ReqKind::Read
                };
                if let Some(dur) = d
                    .submit(t, kind, (i * 1711) % 1_000_000, 64, i % 3 != 0, i as u32)
                    .started()
                {
                    pending.push(dur);
                }
                while d.busy() {
                    let dur = pending.pop().unwrap_or(SimDuration::from_micros(100));
                    t += dur;
                    let (_, next) = d.complete_into(t, &mut done);
                    if let Some(nd) = next.started() {
                        pending.push(nd);
                    }
                }
            }
            black_box(d.counters(t))
        })
    });
}

fn bench_network(c: &mut Criterion) {
    c.bench_function("pfs/network_send_10k", |b| {
        b.iter(|| {
            let mut n = Network::new(Default::default(), 16);
            let mut t = SimTime::ZERO;
            let mut last = SimTime::ZERO;
            for i in 0..10_000u32 {
                let src = NodeId(i % 8);
                let dst = NodeId(8 + (i % 8));
                last = n.send(t, src, dst, 4096);
                t = SimTime(t.as_nanos() + 500);
            }
            black_box(last)
        })
    });
}

/// A reusable streaming-reader scenario at small scale.
fn small_cluster_run() -> RunTrace {
    struct Reader {
        i: u64,
        n: u64,
        file: FileKey,
    }
    impl RankProgram for Reader {
        fn next(&mut self, _now: SimTime) -> ProgramStep {
            if self.i >= self.n {
                return ProgramStep::Finished;
            }
            self.i += 1;
            ProgramStep::Op(IoOp::Read {
                file: self.file,
                offset: (self.i - 1) * 1024 * 1024,
                len: 1024 * 1024,
            })
        }
    }
    let mut cl = Cluster::builder()
        .config(ClusterConfig::small())
        .seed(1)
        .build()
        .expect("valid test cluster");
    let file = FileKey {
        app: AppId(0),
        num: 1,
    };
    cl.precreate_file(file, 64 * 1024 * 1024, None);
    let app = cl.add_app(
        "reader",
        vec![Box::new(Reader { i: 0, n: 64, file })],
        &[NodeId(0)],
    );
    cl.run_until_app(app, SimTime::from_secs(60))
}

fn bench_cluster(c: &mut Criterion) {
    c.bench_function("pfs/cluster_64MiB_stream_read", |b| {
        b.iter(|| black_box(small_cluster_run().ops.len()))
    });
}

fn synthetic_trace(n_ops: usize) -> RunTrace {
    let mut t = RunTrace::default();
    for i in 0..n_ops {
        t.ops.push(OpRecord {
            token: OpToken {
                app: AppId((i % 3) as u32),
                rank: (i % 4) as u32,
                seq: i as u64,
            },
            kind: if i % 2 == 0 {
                OpKind::Read
            } else {
                OpKind::Write
            },
            bytes: 4096,
            issued: SimTime(i as u64 * 100_000),
            completed: SimTime(i as u64 * 100_000 + 50_000),
        });
    }
    t
}

fn bench_monitor(c: &mut Criterion) {
    let trace = synthetic_trace(50_000);
    c.bench_function("monitor/client_windows_50k_ops", |b| {
        b.iter(|| black_box(client_windows(&trace, WindowConfig::seconds(1), 7).len()))
    });
}

fn bench_ml(c: &mut Criterion) {
    c.bench_function("ml/matmul_256x64_64x64", |b| {
        let a = Matrix::from_vec(256, 64, (0..256 * 64).map(|i| (i % 17) as f32).collect());
        let m = Matrix::from_vec(
            64,
            64,
            (0..64 * 64).map(|i| (i % 13) as f32 * 0.1).collect(),
        );
        b.iter(|| black_box(a.matmul(&m).data()[0]))
    });

    c.bench_function("ml/kernelnet_inference_1_window", |b| {
        let mut net = KernelNet::new(39, 7, &[32, 16], &[16], 2, 1);
        let x = Matrix::from_vec(7, 39, (0..7 * 39).map(|i| (i % 11) as f32 * 0.3).collect());
        b.iter(|| black_box(net.forward(&x).data()[0]))
    });

    c.bench_function("ml/train_200_samples_5_epochs", |b| {
        let samples: Vec<Vec<f32>> = (0..200)
            .map(|i| {
                (0..3 * 8)
                    .map(|j| ((i * 7 + j) % 19) as f32 * 0.2)
                    .collect()
            })
            .collect();
        let y: Vec<usize> = (0..200).map(|i| i % 2).collect();
        let data = Dataset::from_samples(samples, y, 3);
        let cfg = TrainConfig {
            epochs: 5,
            ..TrainConfig::default()
        };
        b.iter_batched(
            || data.clone(),
            |d| black_box(train(&d, &cfg).loss_curve.len()),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_device,
    bench_network,
    bench_cluster,
    bench_monitor,
    bench_ml
);
criterion_main!(benches);
