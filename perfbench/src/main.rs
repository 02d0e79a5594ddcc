//! `kdc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root; the last line of stdout is the JSON
//! result. Scratch files live under `.perfbench_runs/` in the working
//! directory and are removed at exit; traced runs keep their span dump in
//! `.perfbench_runs/traces/`.

use kdc_perfbench::report::{self, Report, Tally};
use kdc_perfbench::spans::Recorder;
use kdc_perfbench::stats::median;
use kdc_perfbench::{cli, inputs, pin, serve, solve};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run: at least [`SETUP_MIN`], and more while they have taken
/// under [`SETUP_MIN_SECONDS`] in total, up to [`SETUP_MAX`]. `setup_s` is
/// their median.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 100;
const SETUP_MIN_SECONDS: f64 = 3.0;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Before any thread starts, so that every thread inherits it.
    match pin::pin_to_one_cpu() {
        Ok(cpu) => println!("pinned_cpu: {cpu}"),
        Err(e) => eprintln!("perfbench: not pinned to one CPU ({e}); figures follow the host"),
    }
    let root = PathBuf::from(".perfbench_runs");
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    let run_dir = root.join(format!(
        "{}-s{}-p{}-{nanos}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let result = {
        let _cleanup = RemoveOnDrop(run_dir.clone());
        run(&args, &run_dir)
    };
    match result {
        Ok((report, tally, recorder)) => {
            if let Some(rec) = recorder {
                let path = root
                    .join("traces")
                    .join(format!("{}-seed{}.json", args.workload, args.seed));
                if let Err(e) = rec.write_json(&path) {
                    eprintln!("perfbench: writing {}: {e}", path.display());
                }
            }
            let catalogue = if args.trace {
                report::PER_LAYER
            } else {
                report::END_TO_END
            };
            println!(
                "available_parallelism: {}",
                std::thread::available_parallelism().map_or(0, |n| n.get())
            );
            report.print(catalogue, &tally);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Removes the run's scratch directory on every exit path, panics included.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Whether another set-up should run after `times`.
fn more_setups(times: &[f64]) -> bool {
    times.len() < SETUP_MIN
        || (times.len() < SETUP_MAX && times.iter().sum::<f64>() < SETUP_MIN_SECONDS)
}

/// Set-up (repeated), the untimed preparation of inputs and references,
/// the timed loop, and the answer checks.
fn run(args: &cli::Args, run_dir: &Path) -> Result<(Report, Tally, Option<Recorder>), String> {
    let tally = Tally::default();
    let mut report = Report::default();
    let mut recorder = args.trace.then(Recorder::new);
    let mut setup_s = Vec::new();
    if args.workload == "serve-mixed" {
        let pool = serve::pool(&run_dir.join("inputs"), &tally)?;
        let mut kept = None;
        while more_setups(&setup_s) {
            let state_dir = run_dir.join(format!("state-{}", setup_s.len()));
            let t0 = Instant::now();
            let daemon = serve::start(&pool, &state_dir, &tally)?;
            setup_s.push(t0.elapsed().as_secs_f64());
            // Only the last set-up serves the run; the earlier ones are
            // stopped and their files removed, so no stale state or
            // pending writeback competes with the timed loop.
            if let Some(previous) = kept.replace(daemon) {
                let dir = previous.state_dir.clone();
                previous.shutdown()?;
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        let daemon = kept.ok_or("no set-up ran")?;
        let loop_start_mb = report::reset_peak_rss();
        serve::measure(
            &pool,
            daemon,
            args.seed,
            args.seconds,
            recorder.as_mut(),
            &tally,
            &mut report,
        )?;
        print_loop_start(loop_start_mb);
    } else {
        let (mut kept, mut first) = (None, None);
        while more_setups(&setup_s) {
            let dir = run_dir.join(format!("setup-{}", setup_s.len()));
            let t0 = Instant::now();
            let written = solve::setup(&args.workload, args.seed, &dir)?;
            setup_s.push(t0.elapsed().as_secs_f64());
            let hashes = written
                .iter()
                .map(|(_, path)| inputs::file_hash(path))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("hashing inputs: {e}"))?;
            tally.check(same_as_first(&mut first, hashes));
            // Only the first set-up's files are solved in the timed loop.
            if kept.is_none() {
                kept = Some(written);
            } else {
                drop(written);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
        let cases = solve::prepare(kept.ok_or("no set-up ran")?, &tally)?;
        let loop_start_mb = report::reset_peak_rss();
        solve::measure(
            &cases,
            args.seed,
            args.seconds,
            recorder.as_mut(),
            &tally,
            &mut report,
        );
        print_loop_start(loop_start_mb);
    }
    report.set("setup_s", median(&setup_s), setup_s.len());
    if tally.attempted() == 0 {
        tally.check(Err("no answer was checked".to_string()));
    }
    Ok((report, tally, recorder))
}

/// Prints the resident set size the timed loop started from (the
/// benchmark's own inputs and references, and the idle daemon), the floor
/// under `peak_rss_mb`.
fn print_loop_start(mb: Option<f64>) {
    match mb {
        Some(mb) => println!("rss_at_loop_start_mb: {mb:.1}"),
        None => {
            eprintln!("perfbench: could not reset the peak RSS; peak_rss_mb covers the whole run")
        }
    }
}

/// Checks that a set-up repeat wrote the same inputs as the first set-up.
fn same_as_first<T: PartialEq>(first: &mut Option<T>, this: T) -> Result<(), String> {
    match first {
        None => {
            *first = Some(this);
            Ok(())
        }
        Some(f) if *f == this => Ok(()),
        Some(_) => Err("set-up repeats wrote different inputs".to_string()),
    }
}
