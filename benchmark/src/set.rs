//! A set: every workload once, each in a child process of its own (so
//! `peak_heap_mb` is the workload's), collected into one file with a
//! stamp of the host. `compare` reads two of them.

use std::path::PathBuf;
use std::process::Command;

use crate::host;
use crate::json::{self, Value};
use crate::metrics::RUN_SECONDS;
use crate::workloads::SPECS;

/// `golden.json` holds the digest of every workload at this seed, full
/// scale, written by `benchmark bless`.
const GOLDEN_SEED: u64 = 1;

/// Beside the package's manifest, where the build found it: `set` and
/// `bless` are run from a source checkout.
fn golden_path() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/golden.json"))
}

/// Where span files go: beside the executable, inside the build
/// directory, which the repository ignores.
pub fn artifacts_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."))
}

struct SetArgs {
    out: Option<PathBuf>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: String,
}

fn parse(args: &[String]) -> Result<SetArgs, String> {
    let mut out = SetArgs {
        out: None,
        seed: GOLDEN_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        scale: "full".into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--out" => out.out = Some(PathBuf::from(value)),
            "--seed" => out.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => out.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => out.trace = value == "1",
            "--scale" => out.scale = value.clone(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

/// Run one workload in a child and return its `(stamp, result)` lines.
fn child(workload: &str, args: &SetArgs) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--scale", &args.scale])
        .output()
        .map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .ok_or_else(|| format!("{workload}: no output"))?;
    let stamp = lines
        .next()
        .ok_or_else(|| format!("{workload}: no stamp line"))?;
    let parse = |line: &str| json::parse(line).map_err(|e| format!("{workload}: {e} in {line:?}"));
    let stamp = parse(stamp)?
        .get("stamp")
        .cloned()
        .ok_or_else(|| format!("{workload}: no stamp"))?;
    if !output.status.success() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
    }
    Ok((stamp, parse(result)?))
}

fn run_set(args: &SetArgs) -> Result<Value, String> {
    let mut workloads = Vec::new();
    for spec in &SPECS {
        eprintln!("benchmark: {} ...", spec.name);
        let (stamp, result) = child(spec.name, args)?;
        workloads.push((
            spec.name.to_string(),
            Value::obj(vec![("stamp", stamp), ("result", result)]),
        ));
    }
    let degraded = workloads.iter().any(|(_, w)| {
        w.get("stamp")
            .and_then(|s| s.get("degraded"))
            .and_then(Value::as_bool)
            == Some(true)
    });
    Ok(Value::obj(vec![
        ("scale", Value::str(&args.scale)),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("degraded", Value::Bool(degraded)),
        (
            "hardware_threads",
            Value::Num(host::hardware_threads() as f64),
        ),
        ("rustc", Value::Str(host::rustc_version())),
        ("git_commit", Value::Str(host::git_commit())),
        ("claim", Value::Null),
        ("workloads", Value::Obj(workloads)),
    ]))
}

fn digests(set: &Value) -> Vec<(String, String)> {
    set.get("workloads")
        .map(Value::entries)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, w)| {
            Some((
                name.clone(),
                w.get("stamp")?.get("digest")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

/// `benchmark set`: run every workload, print the table, write the set.
/// At the golden seed and full scale the digests must equal
/// `golden.json`; any other seed relies on the checks inside each run.
pub fn main(args: &[String]) -> Result<bool, String> {
    let args = parse(args)?;
    let set = run_set(&args)?;
    let mut ok = true;
    for (name, w) in set.get("workloads").map(Value::entries).unwrap_or_default() {
        let result = w.get("result");
        let correct = result
            .and_then(|r| r.get("correct"))
            .and_then(Value::as_bool)
            == Some(true);
        ok &= correct;
        println!("{name}: correct={correct}");
        for (metric, v) in result
            .and_then(|r| r.get("metrics"))
            .map(Value::entries)
            .unwrap_or_default()
        {
            let value = v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            println!(
                "  {metric:<40} {value:>16.4} {}",
                v.get("unit").and_then(Value::as_str).unwrap_or("")
            );
        }
    }
    if args.seed == GOLDEN_SEED && args.scale == "full" {
        let golden = std::fs::read_to_string(golden_path())
            .map_err(|e| e.to_string())
            .and_then(|text| json::parse(&text))
            .map_err(|e| format!("{}: {e}", golden_path().display()))?;
        for (name, digest) in digests(&set) {
            let want = golden.get(&name).and_then(Value::as_str);
            if want != Some(digest.as_str()) {
                ok = false;
                eprintln!("benchmark: {name}: digest {digest} is not the golden {want:?}: modelled behaviour changed");
            }
        }
    }
    if let Some(path) = &args.out {
        std::fs::write(path, set.render_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(ok)
}

/// `benchmark bless`: record the digests of a short full-scale set at
/// the golden seed. Rewrites `golden.json` and nothing else.
pub fn bless() -> Result<bool, String> {
    let args = SetArgs {
        out: None,
        seed: GOLDEN_SEED,
        seconds: 1.0,
        trace: false,
        scale: "full".into(),
    };
    let set = run_set(&args)?;
    let golden = Value::Obj(
        digests(&set)
            .into_iter()
            .map(|(name, d)| (name, Value::Str(d)))
            .collect(),
    );
    std::fs::write(golden_path(), golden.render_pretty())
        .map_err(|e| format!("golden.json: {e}"))?;
    eprintln!("benchmark: wrote {}", golden_path().display());
    Ok(true)
}
