//! **Split leak** (ROADMAP 1(a)) — how much of each family's test side
//! the window-level 80/20 split also hands to training: the test windows
//! whose whole feature block occurs, bit for bit, among the training
//! windows. The IO500 generators draw no randomness, so its five seeds
//! are five copies of the same windows; the F1s of Figures 3 and 5 are
//! to be read next to these shares.

use qi_simkit::table::AsciiTable;

use crate::{Context, Family, View};

pub fn run(ctx: &mut Context) {
    let mut table = AsciiTable::new(vec![
        "dataset",
        "windows",
        "distinct",
        "test",
        "test_in_train",
        "share",
    ]);
    for family in Family::ALL {
        let fit = ctx.fit(family, View::Own);
        let r = &fit.report;
        table.add_row(vec![
            family.name().to_string(),
            fit.gen.data.len().to_string(),
            r.distinct_rows.to_string(),
            r.test_size.to_string(),
            r.test_rows_in_train.to_string(),
            format!("{:.4}", r.test_rows_in_train as f64 / r.test_size as f64),
        ]);
    }
    println!("test windows that also occur, bit for bit, in the training side:");
    println!("{}", table.render());
    ctx.write_results("split_leak.csv", &table);
}
