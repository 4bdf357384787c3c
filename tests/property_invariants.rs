//! Property-based tests over cross-crate invariants: trace sanity, label
//! algebra, feature assembly, and monitor aggregation consistency.

use proptest::prelude::*;

use quanterference_repro::framework::prelude::*;
use quanterference_repro::monitor::client_windows;
use quanterference_repro::pfs::config::ClusterConfig;
use quanterference_repro::pfs::ids::DeviceId;

fn quick_run(
    target: WorkloadKind,
    seed: u64,
    noise: Option<(WorkloadKind, u32)>,
) -> (qi_pfs::ids::AppId, qi_pfs::ops::RunTrace, Scenario) {
    let mut s = Scenario {
        cluster: ClusterConfig::small(),
        small: true,
        target_ranks: 2,
        ..Scenario::baseline(target, seed)
    };
    if let Some((kind, instances)) = noise {
        s = s.with_interference(InterferenceSpec {
            kind,
            instances,
            ranks: 2,
        });
    }
    let (app, trace) = s.run().expect("scenario runs");
    (app, trace, s)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case runs a full simulation
        .. ProptestConfig::default()
    })]

    /// Every trace is causally sane: ops complete after they are issued,
    /// completion order matches the record order, and rank sequences
    /// have no gaps.
    #[test]
    fn traces_are_causally_sane(seed in 1u64..500, noisy in proptest::bool::ANY) {
        let noise = noisy.then_some((WorkloadKind::IorEasyWrite, 1));
        let (app, trace, _) = quick_run(WorkloadKind::IorEasyRead, seed, noise);
        let mut prev_completion = qi_simkit::SimTime::ZERO;
        for op in &trace.ops {
            prop_assert!(op.completed > op.issued);
            prop_assert!(op.completed >= prev_completion);
            prev_completion = op.completed;
        }
        // Per-rank sequence numbers are dense from 0.
        let mut by_rank: std::collections::HashMap<(u32, u32), Vec<u64>> = Default::default();
        for op in trace.ops_of(app) {
            by_rank.entry((op.token.app.0, op.token.rank)).or_default().push(op.token.seq);
        }
        for seqs in by_rank.values_mut() {
            seqs.sort_unstable();
            for (i, &s) in seqs.iter().enumerate() {
                prop_assert_eq!(s, i as u64);
            }
        }
    }

    /// The op *sequence* of the target is invariant under interference
    /// (the property §III-D's labelling depends on).
    #[test]
    fn op_sequences_are_interference_invariant(
        seed in 1u64..200,
        instances in 1u32..3,
        kind_idx in 0usize..7,
    ) {
        let kind = WorkloadKind::IO500[kind_idx];
        let (app, base, _) = quick_run(kind, seed, None);
        let (_, noisy, _) = quick_run(kind, seed, Some((WorkloadKind::IorEasyWrite, instances)));
        let mut b: Vec<_> = base.ops_of(app).map(|o| (o.token, o.kind, o.bytes)).collect();
        let mut n: Vec<_> = noisy.ops_of(app).map(|o| (o.token, o.kind, o.bytes)).collect();
        b.sort_by_key(|(t, _, _)| (t.rank, t.seq));
        n.sort_by_key(|(t, _, _)| (t.rank, t.seq));
        prop_assert_eq!(b, n);
    }

    /// Degradation labels are scale-consistent: self-comparison is
    /// exactly 1.0 in every window.
    #[test]
    fn self_degradation_is_unity(seed in 1u64..300, kind_idx in 0usize..7) {
        let kind = WorkloadKind::IO500[kind_idx];
        let (app, trace, _) = quick_run(kind, seed, None);
        let idx = BaselineIndex::new(&trace, app);
        let levels = window_degradation(&idx, &trace, app, WindowConfig::seconds(1));
        for (&w, &lv) in &levels {
            prop_assert!((lv - 1.0).abs() < 1e-9, "window {} level {}", w, lv);
        }
    }

    /// Client windows conserve op counts and bytes: summing all windows
    /// reproduces the trace totals.
    #[test]
    fn client_windows_conserve_totals(seed in 1u64..300) {
        let (app, trace, s) = quick_run(WorkloadKind::DlioBert, seed, None);
        let cw = client_windows(&trace, WindowConfig::seconds(1), s.cluster.n_devices());
        let win_ops: u64 = cw.iter().filter(|((a, _), _)| *a == app).map(|(_, w)| w.total_ops()).sum();
        let win_bytes: u64 = cw.iter().filter(|((a, _), _)| *a == app).map(|(_, w)| w.total_bytes()).sum();
        let trace_ops = trace.ops_of(app).count() as u64;
        let trace_bytes: u64 = trace.ops_of(app).map(|o| o.bytes).sum();
        prop_assert_eq!(win_ops, trace_ops);
        prop_assert_eq!(win_bytes, trace_bytes);
    }

    /// Server counters are monotone over time on every device.
    #[test]
    fn server_counters_are_monotone(seed in 1u64..300, noisy in proptest::bool::ANY) {
        let noise = noisy.then_some((WorkloadKind::MdtHardWrite, 2));
        let (_, trace, s) = quick_run(WorkloadKind::IorEasyWrite, seed, noise);
        for d in 0..s.cluster.n_devices() {
            let dev = DeviceId(d);
            let mut prev: Option<qi_pfs::queue::DeviceCounters> = None;
            for smp in trace.samples.iter().filter(|x| x.dev == dev) {
                if let Some(p) = prev {
                    let c = smp.counters;
                    prop_assert!(c.reads_completed >= p.reads_completed);
                    prop_assert!(c.writes_completed >= p.writes_completed);
                    prop_assert!(c.sectors_read >= p.sectors_read);
                    prop_assert!(c.sectors_written >= p.sectors_written);
                    prop_assert!(c.enqueued >= p.enqueued);
                    prop_assert!(c.wait_ns >= p.wait_ns);
                    prop_assert!(c.weighted_depth_ns >= p.weighted_depth_ns);
                }
                prev = Some(smp.counters);
            }
        }
    }

    /// Feature vectors never contain NaN/inf, at any window size.
    #[test]
    fn features_are_always_finite(seed in 1u64..200, window_ms in 250u64..4000) {
        let (app, trace, s) = quick_run(
            WorkloadKind::Enzo,
            seed,
            Some((WorkloadKind::IorEasyWrite, 1)),
        );
        let wcfg = WindowConfig {
            window: qi_simkit::SimDuration::from_millis(window_ms),
        };
        let vecs = window_vectors_with(&trace, app, wcfg, FeatureConfig::default(), s.cluster.n_devices(), Imputation::Zero);
        for v in vecs.values() {
            prop_assert!(v.iter().all(|x| x.is_finite()));
        }
    }
}
