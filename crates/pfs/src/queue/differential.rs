//! Differential tests: [`BlockDevice`] against the linear-scan
//! [`LinearDevice`] it replaced, call for call.

use proptest::prelude::*;
use qi_simkit::time::{SimDuration, SimTime};

use super::reference::LinearDevice;
use super::{BlockDevice, CompletedMeta, Dispatch, Member, ReqKind};
use crate::config::{DiskConfig, QueueConfig};
use crate::disk::Disk;

/// What the event loop owes a device at some instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Due {
    Complete,
    IdleCheck,
}

/// Both devices behind one event loop. Every call goes to both and
/// every answer — dispatch decision, completion metadata, member tags
/// in merge order, counters — must be equal before the loop acts on it.
struct Pair {
    new: BlockDevice<usize>,
    old: LinearDevice<usize>,
    now: SimTime,
    /// `(when, schedule order, what)`: the device's pending events.
    due: Vec<(SimTime, u64, Due)>,
    scheduled: u64,
    /// Member tags of every completion so far, one `Vec` per request.
    completions: Vec<(CompletedMeta, Vec<usize>)>,
}

impl Pair {
    fn new(cfg: QueueConfig) -> Self {
        let disk = || Disk::new(DiskConfig::sata_7200_ost());
        Pair {
            new: BlockDevice::new(cfg.clone(), disk()),
            old: LinearDevice::new(cfg, disk()),
            now: SimTime::ZERO,
            due: Vec::new(),
            scheduled: 0,
            completions: Vec::new(),
        }
    }

    /// Act on a dispatch decision the way the cluster does.
    fn follow(&mut self, d: Dispatch) {
        let (at, what) = match d {
            Dispatch::Started(dur) => (self.now + dur, Due::Complete),
            Dispatch::Anticipating(at) => (at, Due::IdleCheck),
            Dispatch::Idle => return,
        };
        self.due.push((at, self.scheduled, what));
        self.scheduled += 1;
    }

    fn check_counters(&self) {
        assert_eq!(self.new.counters(self.now), self.old.counters(self.now));
        assert_eq!(self.new.busy(), self.old.busy());
        self.new.bg.check();
    }

    /// Entries the indexed device's merge walk and probes have visited.
    fn steps(&self) -> u64 {
        self.new.bg.steps.get()
    }

    fn submit(&mut self, kind: ReqKind, sector: u64, sectors: u64, fg: bool) {
        let tag = self.new.counters(self.now).enqueued as usize;
        let a = self.new.submit(self.now, kind, sector, sectors, fg, tag);
        let b = self.old.submit(self.now, kind, sector, sectors, fg, tag);
        assert_eq!(a, b, "submit of tag {tag}");
        self.check_counters();
        self.follow(a);
    }

    fn stall(&mut self, dur: SimDuration) {
        let until = self.now + dur;
        let a = self.new.stall(self.now, until);
        assert_eq!(a, self.old.stall(self.now, until), "stall");
        self.follow(a);
    }

    /// Deliver the earliest pending event; false when there is none.
    fn step(&mut self) -> bool {
        let Some(i) = (0..self.due.len()).min_by_key(|&i| self.due[i]) else {
            return false;
        };
        let (at, _, what) = self.due.swap_remove(i);
        self.now = at;
        let next = match what {
            Due::IdleCheck => {
                let a = self.new.idle_check(at);
                assert_eq!(a, self.old.idle_check(at), "idle check");
                a
            }
            Due::Complete => {
                let (mut ma, mut mb) = (Vec::new(), Vec::new());
                let (meta, a) = self.new.complete_into(at, &mut ma);
                assert_eq!((meta, a), self.old.complete_into(at, &mut mb));
                let key = |m: &Member<usize>| (m.tag, m.arrival, m.sectors);
                let (ka, kb): (Vec<_>, Vec<_>) =
                    (ma.iter().map(key).collect(), mb.iter().map(key).collect());
                assert_eq!(ka, kb, "member order of a completion");
                self.completions
                    .push((meta, ma.iter().map(|m| m.tag).collect()));
                a
            }
        };
        self.check_counters();
        self.follow(next);
        true
    }

    /// Run until `until`, delivering everything due on the way.
    fn advance(&mut self, until: SimTime) {
        while self.due.iter().any(|&(at, ..)| at <= until) {
            self.step();
        }
        self.now = until;
    }

    /// Run the queue dry and compare everything cumulative.
    fn finish(&mut self) -> Vec<(CompletedMeta, Vec<usize>)> {
        while self.step() {}
        let c = self.new.counters(self.now);
        assert_eq!(c.queued_now, 0, "requests left in the queue");
        assert_eq!(c.reads_completed + c.writes_completed, c.enqueued);
        assert_eq!(self.new.depth_stats(), self.old.depth_stats());
        assert_eq!(self.new.seek_stats(), self.old.seek_stats());
        std::mem::take(&mut self.completions)
    }
}

/// The pass/seq order of the dispatch-time merge, spelled out. Nothing
/// merges at submit (scan depth 0), so the pick of `P` has to collect
/// its neighbours from the queue:
///
/// ```text
/// seq  tag  span        kind
///  0   E    [124,132)   W   adjacent only once D is in   -> pass 2
///  1   F    [ 76, 84)   W   adjacent only once C is in   -> pass 2
///  2   X    [108,116)   R   wrong kind, never
///  3   P    [100,108)   W   the pick (head stands at 100)
///  4   A    [ 92,100)   W   front                        -> pass 1
///  5   B    [108,116)   W   back                         -> pass 1
///  6   B'   [108,116)   W   same start as B, but B won   -> never
///  7   C    [ 84, 92)   W   front, after A               -> pass 1
///  8   D    [116,124)   W   back, after B                -> pass 1
///  9   G    [132,140)   W   adjacent after E, but full   -> never
/// ```
///
/// Pass 1 walks up from seq 0 and may not go back: when C makes F
/// adjacent, F (seq 1) is already behind the scan and D (seq 8) goes
/// first. Pass 2 restarts at seq 0 and takes E then F, which fills the
/// request to `max_merge_sectors` exactly, so G stays queued although
/// it now touches. Pass 3 finds nothing.
#[test]
fn dispatch_merge_order_is_by_pass_then_seq() {
    use ReqKind::{Read as R, Write as W};
    let mut p = Pair::new(QueueConfig {
        max_merge_sectors: 56,
        merge_scan_depth: 0,
        ..QueueConfig::default()
    });
    // Tag 0 goes straight into service and parks the head at 100.
    p.submit(W, 0, 100, false);
    let spans = [
        (W, 124), // 1 E
        (W, 76),  // 2 F
        (R, 108), // 3 X
        (W, 100), // 4 P
        (W, 92),  // 5 A
        (W, 108), // 6 B
        (W, 108), // 7 B'
        (W, 84),  // 8 C
        (W, 116), // 9 D
        (W, 132), // 10 G
    ];
    for (kind, sector) in spans {
        p.submit(kind, sector, 8, false);
    }
    let done = p.finish();
    let tags: Vec<&[usize]> = done.iter().map(|(_, t)| t.as_slice()).collect();
    assert_eq!(
        tags,
        [
            &[0][..],
            &[4, 5, 6, 8, 9, 1, 2], // P A B C D | E F
            &[10],                  // G: next at or above the head (132)
            &[3],                   // wrap: X before B' at sector 108, queue order
            &[7],
        ]
    );
    assert_eq!((done[1].0.sectors, done[1].0.kind), (56, W));
}

/// The queue a looping writer leaves behind: 21 extents of 93 sectors,
/// each overlapping the next by one sector (47 008-byte records on
/// 512-byte sectors), so no two are ever adjacent, rewritten 45 times
/// while foreground reads keep the disk from draining them. No merge is
/// possible, and the presence maps say so without visiting one entry:
/// the step count is exactly 0, where a walk spends `merge_scan_depth`
/// steps a submit and a window scan a hundred a pick.
#[test]
fn rewrite_storm_visits_no_entry() {
    const EXTENTS: u64 = 21;
    const GENERATIONS: u64 = 45;
    let mut p = Pair::new(QueueConfig::default());
    let mut deepest = 0;
    for gen in 0..GENERATIONS {
        for k in 0..EXTENTS {
            p.submit(ReqKind::Write, 100_000 + 92 * k, 93, false);
            if k % 7 == 0 {
                let far = 4_000_000 + 1000 * (gen * EXTENTS + k);
                p.submit(ReqKind::Read, far, 8, true);
            }
        }
        p.advance(p.now + SimDuration::from_millis(5));
        deepest = deepest.max(p.new.counters(p.now).queued_now);
    }
    assert!(deepest >= 300, "queue only {deepest} deep");
    let done = p.finish();
    let c = p.new.counters(p.now);
    assert_eq!(c.read_merges + c.write_merges, 0);
    assert_eq!(done.len() as u64, GENERATIONS * (EXTENTS + 3));
    assert_eq!(p.steps(), 0, "entries visited for merges that cannot exist");
}

/// Where merges do happen the walk is what it was: two interleaved
/// sequential streams behind a busy disk, each request adjacent to an
/// entry one or two back until that entry is full. Every submit visits
/// at most `merge_scan_depth` entries, and most of them merge.
#[test]
fn dense_streams_walk_within_the_scan_depth() {
    let cfg = QueueConfig {
        max_merge_sectors: 64,
        merge_scan_depth: 4,
        ..QueueConfig::default()
    };
    let depth = cfg.merge_scan_depth as u64;
    let mut p = Pair::new(cfg);
    // Tag 0 goes into service; everything after it queues.
    p.submit(ReqKind::Write, 0, 8, false);
    let mut walked = 0;
    for i in 0..200 {
        for base in [10_000, 500_000] {
            let before = p.steps();
            p.submit(ReqKind::Write, base + 8 * i, 8, false);
            let spent = p.steps() - before;
            assert!(spent <= depth, "submit {i} visited {spent} entries");
            walked += spent;
        }
    }
    assert!(walked > 0);
    // 64-sector requests of 8-sector members: seven merges in eight.
    assert_eq!(p.new.counters(p.now).write_merges, 2 * 200 * 7 / 8);
    p.finish();
}

/// One scripted step: let `gap` pass, then act.
#[derive(Clone, Debug)]
enum Step {
    Submit {
        kind: ReqKind,
        sector: u64,
        sectors: u64,
        fg: bool,
    },
    Stall(SimDuration),
}

fn script(max_len: usize) -> impl Strategy<Value = Vec<(u64, Step)>> {
    // Sectors come from a small grid of 8-sector slots so that equal,
    // overlapping and adjacent spans are the rule, and chains form that
    // only close up after several passes; lengths off the grid (4, 12)
    // make overlaps that are not adjacencies. Gaps are mostly zero so
    // the queue grows behind a busy disk, with the odd pause long enough
    // to drain it and move the head (which is what forces C-SCAN wraps).
    prop::collection::vec(
        (
            0u32..100,
            0u32..100,
            0u64..48,
            prop::sample::select(vec![8u64, 8, 8, 8, 16, 24, 4, 12, 40]),
            0u64..u64::MAX,
        ),
        1..max_len,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(what, gap_sel, slot, sectors, r)| {
                let gap = match gap_sel {
                    0..=69 => 0,
                    70..=89 => r % 200_000,
                    _ => 1_000_000 + r % 60_000_000,
                };
                let step = match what {
                    0..=2 => Step::Stall(SimDuration::from_nanos(1 + r % 20_000_000)),
                    3..=74 => Step::Submit {
                        kind: if what % 8 == 0 {
                            ReqKind::Read
                        } else {
                            ReqKind::Write
                        },
                        sector: 1000 + slot * 8,
                        sectors,
                        fg: false,
                    },
                    _ => Step::Submit {
                        kind: if what % 2 == 0 {
                            ReqKind::Read
                        } else {
                            ReqKind::Write
                        },
                        sector: 1000 + slot * 8,
                        sectors,
                        fg: true,
                    },
                };
                (gap, step)
            })
            .collect()
    })
}

proptest! {
    /// Any submit / completion / idle-check / stall sequence gets the
    /// same answers from the indexed device and the linear scan: equal
    /// `Dispatch` values, completion metadata, member tag order,
    /// `DeviceCounters` after every call, and `depth_stats` /
    /// `seek_stats` at the end.
    #[test]
    fn indexed_device_matches_linear_scan(
        steps in script(160),
        max_merge in prop::sample::select(vec![16u64, 32, 64, 8192]),
        scan_depth in prop::sample::select(vec![0usize, 1, 3, 64]),
        writes_starved in prop::sample::select(vec![1u32, 12]),
        idle_wait_us in prop::sample::select(vec![0u64, 3000]),
    ) {
        let mut p = Pair::new(QueueConfig {
            max_merge_sectors: max_merge,
            merge_scan_depth: scan_depth,
            writes_starved,
            idle_wait: SimDuration::from_micros(idle_wait_us),
        });
        for (gap, step) in steps {
            p.advance(p.now + SimDuration::from_nanos(gap));
            match step {
                Step::Submit { kind, sector, sectors, fg } => p.submit(kind, sector, sectors, fg),
                Step::Stall(dur) => p.stall(dur),
            }
        }
        p.finish();
    }
}
