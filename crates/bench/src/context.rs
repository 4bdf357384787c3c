//! What the experiments of one run share: each family's grid simulated
//! once, the binary fit on each harvest trained once, the check that an
//! experiment writes only the files it declares, and the tally behind
//! the closing table.

use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use qi_monitor::window::WindowConfig;
use qi_simkit::table::AsciiTable;
use quanterference::dataset::{generate_views, DatasetSpec, DatasetView, GeneratedDataset, Split};
use quanterference::labeling::Bins;
use quanterference::predict::{evaluate, family_spec, EvalReport, Predictor};
use quanterference::{TrainConfig, WorkloadKind};

use crate::{results_dir, Experiment};

/// The seed of every experiment's 80/20 split.
const SPLIT_SEED: u64 = 42;

/// A workload family whose interfered grid the experiments share.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    Io500,
    Dlio,
    Amrex,
    Enzo,
    OpenPmd,
}

impl Family {
    /// Figure 3's two benchmark families, then Figure 5's three
    /// application proxies.
    pub const ALL: [Family; 5] = [
        Family::Io500,
        Family::Dlio,
        Family::Amrex,
        Family::Enzo,
        Family::OpenPmd,
    ];

    /// Lower-case name, as the CSVs spell it.
    pub fn name(self) -> &'static str {
        match self {
            Family::Io500 => "io500",
            Family::Dlio => "dlio",
            Family::Amrex => "amrex",
            Family::Enzo => "enzo",
            Family::OpenPmd => "openpmd",
        }
    }

    fn spec(self, small: bool) -> DatasetSpec {
        match self {
            Family::Io500 => family_spec(&WorkloadKind::IO500, small),
            Family::Dlio => family_spec(&WorkloadKind::DLIO, small),
            Family::Amrex => family_spec(&[WorkloadKind::Amrex], small),
            Family::Enzo => family_spec(&[WorkloadKind::Enzo], small),
            Family::OpenPmd => {
                // The paper collected notably fewer OpenPMD samples and
                // got a weaker model; mirror that by shrinking its grid.
                let mut spec = family_spec(&[WorkloadKind::OpenPmd], small);
                spec.seeds.truncate(2);
                spec.intensities = vec![1, 3];
                spec
            }
        }
    }

    /// Every view an experiment reads this family under: its one
    /// simulation is harvested under all of them.
    fn views(self) -> &'static [View] {
        match self {
            Family::Io500 => &[
                View::Own,
                View::ThreeClass,
                View::ClientOnly,
                View::ServerOnly,
                View::WindowMs(500),
                View::WindowMs(2000),
                View::WindowMs(4000),
            ],
            _ => &[View::Own],
        }
    }
}

/// One way of harvesting a family's grid; only IO500 is read under
/// anything but its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum View {
    /// The family spec's own: 1 s windows, client + server features,
    /// binary bins.
    Own,
    /// Bins at 2× and 5× (Figure 4).
    ThreeClass,
    /// Client-side features only.
    ClientOnly,
    /// Server-side features only.
    ServerOnly,
    /// Another window length, in milliseconds.
    WindowMs(u64),
}

impl View {
    /// This view, given the family spec's own (both feature blocks on).
    fn of(self, mut own: DatasetView) -> DatasetView {
        match self {
            View::Own => {}
            View::ThreeClass => own.bins = Bins::three_class(),
            View::ClientOnly => own.features.server = false,
            View::ServerOnly => own.features.client = false,
            View::WindowMs(ms) => own.window = WindowConfig::millis(ms),
        }
        own
    }
}

/// The binary kernel-net fit on one harvest, with the split it was
/// trained and scored on.
pub struct Fit {
    pub gen: Rc<GeneratedDataset>,
    pub split: Split,
    pub predictor: Predictor,
    pub report: EvalReport,
}

/// One row of the closing table.
#[derive(Default)]
struct Tally {
    name: &'static str,
    seconds: f64,
    grids: usize,
    fits: usize,
    files: usize,
}

/// The state of one run of the experiments target.
#[derive(Default)]
pub struct Context {
    /// Reduced scale: print the rows, write nothing.
    pub small: bool,
    datasets: HashMap<(Family, View), Rc<GeneratedDataset>>,
    fits: HashMap<(Family, View), Rc<Fit>>,
    /// The files the running experiment declares.
    declared: &'static [&'static str],
    /// One row per experiment run so far; the last is the running one's.
    tallies: Vec<Tally>,
}

impl Context {
    pub fn new(small: bool) -> Self {
        Context {
            small,
            ..Context::default()
        }
    }

    /// Run one experiment and time it.
    pub fn run(&mut self, &(name, files, run): &Experiment) {
        println!("\n##### {name} #####");
        self.declared = files;
        self.tallies.push(Tally {
            name,
            ..Tally::default()
        });
        let t0 = Instant::now();
        run(self);
        self.tally().seconds = t0.elapsed().as_secs_f64();
    }

    fn tally(&mut self) -> &mut Tally {
        self.tallies.last_mut().expect("an experiment is running")
    }

    /// The training configuration of every binary model.
    pub fn binary_tcfg(&self) -> TrainConfig {
        TrainConfig {
            epochs: if self.small { 20 } else { 40 },
            ..TrainConfig::default()
        }
    }

    /// `family`'s dataset under `view`. The first request for a family
    /// simulates its grid, once, and harvests it under every view an
    /// experiment reads.
    pub fn dataset(&mut self, family: Family, view: View) -> Rc<GeneratedDataset> {
        if !self.datasets.contains_key(&(family, View::Own)) {
            let spec = family.spec(self.small);
            let names = family.views();
            let views: Vec<DatasetView> = names.iter().map(|v| v.of(spec.view())).collect();
            println!(
                "simulating the {} grid ({} interfered runs), harvested {} way(s)...",
                family.name(),
                spec.n_runs(),
                views.len()
            );
            let harvests = generate_views(&spec, &views).expect("dataset generates");
            for (&name, gen) in names.iter().zip(harvests) {
                self.datasets.insert((family, name), Rc::new(gen));
            }
            self.tally().grids += 1;
        }
        let gen = self.datasets.get(&(family, view));
        Rc::clone(gen.unwrap_or_else(|| panic!("{family:?} is not harvested under {view:?}")))
    }

    /// The binary fit ([`Context::binary_tcfg`]) on `family`'s dataset
    /// under `view`, trained on first request.
    pub fn fit(&mut self, family: Family, view: View) -> Rc<Fit> {
        if let Some(fit) = self.fits.get(&(family, view)) {
            return Rc::clone(fit);
        }
        let gen = self.dataset(family, view);
        let (predictor, report) = self.evaluate(&gen, &self.binary_tcfg());
        let split = gen.split(SPLIT_SEED);
        let fit = Rc::new(Fit {
            gen,
            split,
            predictor,
            report,
        });
        self.fits.insert((family, view), Rc::clone(&fit));
        fit
    }

    /// Train and score a kernel net on `gen`'s split.
    pub fn evaluate(
        &mut self,
        gen: &GeneratedDataset,
        tcfg: &TrainConfig,
    ) -> (Predictor, EvalReport) {
        self.count_fit();
        evaluate(gen, tcfg, SPLIT_SEED).expect("pipeline trains")
    }

    /// One more model trained on a family dataset; the arms that train
    /// something other than the kernel net call it themselves.
    pub fn count_fit(&mut self) {
        self.tally().fits += 1;
    }

    /// Record one table as `results/<name>`, the tracked reproduction
    /// record. A smoke run prints the rows instead: its reduced-scale
    /// numbers must never replace the full-scale ones.
    ///
    /// # Panics
    ///
    /// When the running experiment does not declare `name`: the declared
    /// set is what `the_declared_files_are_the_csvs_on_disk` compares
    /// with `results/`.
    pub fn write_results(&mut self, name: &str, table: &AsciiTable) {
        assert!(
            self.declared.contains(&name),
            "experiment {} does not declare results/{name}",
            self.tally().name
        );
        self.tally().files += 1;
        if self.small {
            print!("{}", table.to_csv());
            println!("smoke: results/{name} not written");
            return;
        }
        table
            .write_csv(results_dir().join(name))
            .expect("write CSV");
        println!("wrote results/{name}");
    }

    /// The closing table: what each experiment of this run cost. Grids
    /// and fits are the family grids simulated and the models trained on
    /// them, counted against the experiment that asked first.
    pub fn closing_table(&self) -> AsciiTable {
        let mut table = AsciiTable::new(vec!["experiment", "seconds", "grids", "fits", "files"]);
        let mut total = Tally {
            name: "total",
            ..Tally::default()
        };
        for t in &self.tallies {
            total.seconds += t.seconds;
            total.grids += t.grids;
            total.fits += t.fits;
            total.files += t.files;
        }
        for t in self.tallies.iter().chain([&total]) {
            let counts = [t.grids, t.fits, t.files].map(|n| n.to_string());
            let mut row = vec![t.name.to_string(), format!("{:.1}", t.seconds)];
            row.extend(counts);
            table.add_row(row);
        }
        table
    }
}
