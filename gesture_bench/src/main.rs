//! Gesture-to-pixels benchmark for Tioga-2.
//!
//! ```text
//! cargo run --release --manifest-path gesture_bench/Cargo.toml -- \
//!     --workload <deep_zoom|overview|group_replicate|served_edit_mix|all> \
//!     --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Each run sets a workload up five times (reporting the median set-up
//! time), drives it in a closed loop for `--seconds`, checks that its
//! final frame equals a cold rebuild, prints `workload metric value unit`
//! lines, writes `target/benchmark/<workload>-seed<seed>-trace<t>.json`,
//! and prints the same JSON object as its last line.  `--trace 0` reports
//! the end-to-end metrics with tracing off; `--trace 1` reports the
//! per-layer metrics of a traced run.  `--workload all` runs every
//! workload in its own child process.  See README.md.

mod layers;
mod report;
mod scenes;
mod served;
mod stats;

use layers::{run_traced, Traced};
use report::RunResult;
use scenes::{check_frames, cold_frame, run_plain, Scene, Script, Timings, WARMUP};
use served::{served_user, UserLog, Way};
use stats::{peak_rss_mb, percentile, ratio};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: benchmark [--workload <name|all>] [--seed <u64>] \
                     [--seconds <n>] [--trace <0|1>]";

const WORKLOADS: [Scene; 4] =
    [Scene::DeepZoom, Scene::Overview, Scene::GroupReplicate, Scene::Served];

/// Set-ups per run; the reported `setup_s` is their median.
const SETUPS: usize = 5;

/// The end-to-end metrics, in report order.
const END_TO_END: [&str; 6] =
    ["setup_s", "gesture_p50_ms", "gesture_p90_ms", "gestures_per_s", "edit_p50_ms", "peak_rss_mb"];

/// The per-layer metrics of a traced run, in report order.
const PER_LAYER: [&str; 20] = [
    "core.gesture_op_ms",
    "dataflow.demand_ms",
    "dataflow.box_evals",
    "dataflow.cache_hit_frac",
    "dataflow.window_pushdown_frac",
    "dataflow.delta_apply_ms",
    "dataflow.delta_patched_frac",
    "relational.install_update_ms",
    "viewer.compose_ms",
    "viewer.rows_in",
    "viewer.items",
    "viewer.items_per_row_in",
    "render.draw_ms",
    "render.hits",
    "render.hit_frac",
    "server.wire_ms",
    "server.queue_ms",
    "obs.journal_bytes_per_op",
    "traced.gesture_ms",
    "traced.edit_ms",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args { workload: "all".into(), seed: 1, seconds: 20.0, trace: false };
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{val}': {e}");
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {}", a.seconds));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(scene) = WORKLOADS.into_iter().find(|w| w.name() == args.workload) else {
        eprintln!("benchmark: unknown workload '{}'\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    // Engine workers per session: the machine's cores shared among the
    // sessions that run at once.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sessions = if scene == Scene::Served { served::USERS } else { 1 };
    tioga2_relational::par::set_threads((cores / sessions).max(1));

    let out_dir = match prepare_dirs() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let work = std::env::current_dir().expect("work directory was just entered");
    let outcome =
        if args.trace { traced(scene, &args, &out_dir) } else { end_to_end(scene, &args) };
    let _ = std::env::set_current_dir(&out_dir);
    let _ = std::fs::remove_dir_all(&work);
    let result = outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {} failed: {e}", scene.name());
        RunResult::default()
    });

    for m in &result.metrics {
        println!("{} {} {} {}", scene.name(), m.name, m.value, m.unit);
    }
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let missing: Vec<&str> = expected.iter().copied().filter(|n| result.get(n).is_none()).collect();
    if !missing.is_empty() {
        eprintln!("benchmark: missing metrics: {}", missing.join(", "));
    }
    let json = result.to_json();
    let file =
        out_dir.join(format!("{}-seed{}-trace{}.json", scene.name(), args.seed, args.trace as u8));
    if let Err(e) = std::fs::write(&file, format!("{json}\n")) {
        eprintln!("benchmark: cannot write {}: {e}", file.display());
    }
    println!("{json}");
    if result.correct && missing.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Create `target/benchmark/` and enter a private work directory inside
/// it: served `render` commands write `out/*.ppm` relative to the working
/// directory, and must not touch the checkout's own `out/`.
fn prepare_dirs() -> Result<std::path::PathBuf, String> {
    let out_dir = std::env::current_dir().map_err(|e| e.to_string())?.join("target/benchmark");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    std::env::set_current_dir(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    Ok(out_dir)
}

/// Run `build` [`SETUPS`] times, keeping the last result; returns it with
/// the median set-up time in seconds.
fn timed_setups<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(build()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let median = stats::median(&times).expect("at least one set-up ran");
    Ok((kept.expect("at least one set-up ran"), median))
}

fn end_to_end(scene: Scene, args: &Args) -> Result<RunResult, String> {
    let seed = args.seed;
    // Peak memory is read when the timed phase ends, before the output
    // check builds its own sessions.
    let (t, rss, check, setup_s) = if scene == Scene::Served {
        let (mut fleet, setup_s) = timed_setups(|| served::start_fleet(seed))?;
        let logs: Vec<UserLog> = std::thread::scope(|sc| {
            let users: Vec<_> = fleet
                .clients
                .iter_mut()
                .enumerate()
                .map(|(i, c)| {
                    sc.spawn(move || {
                        let mut script = Script::new(scene, seed, i as u64);
                        served_user(c, &mut script, WARMUP, args.seconds)
                    })
                })
                .collect();
            users.into_iter().map(|u| u.join().expect("user thread panicked")).collect()
        });
        let rss = peak_rss_mb();
        let check = served::check_replay(&mut fleet, &logs, seed);
        fleet.handle.stop();
        let mut t = Timings::default();
        logs.into_iter().for_each(|l| t.merge(l.timings));
        (t, rss, check, setup_s)
    } else {
        let (mut s, setup_s) = timed_setups(|| scene.setup(seed).map_err(|e| e.to_string()))?;
        let mut script = Script::new(scene, seed, 0);
        let (t, live) = run_plain(scene, &mut s, &mut script, WARMUP, args.seconds)
            .map_err(|e| e.to_string())?;
        let rss = peak_rss_mb();
        let cold = cold_frame(scene, &mut s, seed).map_err(|e| e.to_string())?;
        (t, rss, check_frames(&live, &cold), setup_s)
    };
    if let Err(e) = &check {
        eprintln!("benchmark: output check failed: {e}");
    }
    println!("{} gestures {} count", scene.name(), t.gestures_ms.len());
    println!("{} edits {} count", scene.name(), t.edits_ms.len());
    println!("{} skipped_edits {} count", scene.name(), t.skipped_edits);
    Ok(e2e_result(check.is_ok(), &t, setup_s, rss))
}

fn e2e_result(correct: bool, t: &Timings, setup_s: f64, rss_mb: Option<f64>) -> RunResult {
    let mut r =
        RunResult { correct, attempted: t.attempted, failed: t.failed, metrics: Vec::new() };
    r.push("setup_s", Some(setup_s), "s");
    r.push("gesture_p50_ms", percentile(&t.gestures_ms, 50), "ms");
    r.push("gesture_p90_ms", percentile(&t.gestures_ms, 90), "ms");
    r.push("gestures_per_s", Some(t.gestures_ms.len() as f64 / t.seconds), "1/s");
    r.push("edit_p50_ms", percentile(&t.edits_ms, 50), "ms");
    r.push("peak_rss_mb", rss_mb, "MB");
    r
}

/// Wire and queue cost per frame, from a probe `pan` on a fitted
/// eight-point canvas (it does no demand) run for `secs` each way: the p50
/// over TCP minus the p50 through `Server::run`, and that minus the p50 of
/// `run_line` on a plain session.  A difference of two whole-gesture
/// medians cannot resolve them: a served gesture costs milliseconds and its
/// median moves by more between phases than a frame spends on the wire.
fn wire_and_queue(seed: u64, secs: f64) -> Result<[f64; 2], String> {
    let mut p50 = [0.0; 3];
    for (i, way) in [Way::Wire, Way::Admission, Way::Local].into_iter().enumerate() {
        let t = served::probe(way, seed, secs)?;
        p50[i] = percentile(&t.gestures_ms, 50).ok_or(format!("{way:?}: too few probes"))?;
    }
    Ok([p50[0] - p50[1], p50[1] - p50[2]])
}

/// 5% untraced (the journal's bytes per operation), 80% traced with one
/// session per user, and 5% for each way of the wire-and-queue probe.
fn traced(scene: Scene, args: &Args, out_dir: &Path) -> Result<RunResult, String> {
    let (seed, secs) = (args.seed, args.seconds);
    let err = |e: tioga2_core::CoreError| e.to_string();
    let mut s = scene.setup(seed).map_err(err)?;
    let mark = s.events().last_seq().unwrap_or(0);
    let mut script = Script::new(scene, seed, 0);
    let (plain, _) = run_plain(scene, &mut s, &mut script, 0, secs * 0.05).map_err(err)?;
    let journal = ratio(journal_bytes_since(&s, mark) as f64, plain.attempted as f64);
    drop(s);

    let users = if scene == Scene::Served { served::USERS } else { 1 };
    let runs: Vec<Result<_, String>> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..users)
            .map(|user| {
                sc.spawn(move || {
                    let mut s = scene.setup(seed).map_err(err)?;
                    let mut script = Script::new(scene, seed, user as u64);
                    let (t, frame, rec) =
                        run_traced(scene, &mut s, &mut script, WARMUP, secs * 0.8).map_err(err)?;
                    let cold = cold_frame(scene, &mut s, seed).map_err(err)?;
                    Ok((t, check_frames(&frame, &cold), rec))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("user thread panicked")).collect()
    });
    let mut traced = Traced::default();
    let mut check = Ok(());
    for (i, run) in runs.into_iter().enumerate() {
        let (t, c, rec) = run?;
        traced.merge(t);
        check = check.and(c);
        let path = out_dir.join(format!("{}-seed{seed}-user{i}.trace.json", scene.name()));
        std::fs::write(&path, tioga2_obs::export::chrome_trace_json(&rec))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let Err(e) = &check {
        eprintln!("benchmark: traced frame differs from Session::render: {e}");
    }
    println!("{} traced_gestures {} count", scene.name(), traced.gestures.len());
    println!("{} traced_edits {} count", scene.name(), traced.edits.len());
    let split = wire_and_queue(seed, secs * 0.05)?;
    let mut r = RunResult {
        correct: check.is_ok(),
        attempted: traced.attempted,
        failed: traced.failed,
        metrics: Vec::new(),
    };
    layer_metrics(&mut r, &traced, split, journal);
    Ok(r)
}

/// Bytes of the session journal's JSONL lines after sequence `mark`.
fn journal_bytes_since(s: &tioga2_core::Session, mark: u64) -> u64 {
    s.events()
        .events_since(mark)
        .iter()
        .map(|(seq, ev)| tioga2_obs::journal::event_line(*seq, ev).len() as u64 + 1)
        .sum()
}

fn layer_metrics(r: &mut RunResult, t: &Traced, [wire, queue]: [f64; 2], journal: f64) {
    let (g, e) = (&t.gestures, &t.edits);
    let p50 = |v: Vec<f64>| percentile(&v, 50);
    let layer = |layer: &str| p50(g.iter().map(|s| s.ms(layer)).collect());
    let edit_layer = |layer: &str| p50(e.iter().map(|s| s.ms(layer)).collect());
    let count =
        |f: fn(&layers::Counts) -> u64| p50(g.iter().map(|s| f(&s.counts) as f64).collect());
    let sum =
        |f: fn(&layers::Counts) -> u64| g.iter().chain(e).map(|s| f(&s.counts) as f64).sum::<f64>();
    let share = |f: fn(&layers::Counts) -> bool| {
        Some(ratio(g.iter().filter(|s| f(&s.counts)).count() as f64, g.len() as f64))
    };
    r.push("core.gesture_op_ms", layer("core.gesture_op"), "ms");
    r.push("dataflow.demand_ms", layer("dataflow.demand"), "ms");
    r.push("dataflow.box_evals", count(|c| c.box_evals), "count");
    r.push("dataflow.cache_hit_frac", share(|c| c.cache_hit), "ratio");
    r.push("dataflow.window_pushdown_frac", share(|c| c.windowed), "ratio");
    r.push("dataflow.delta_apply_ms", edit_layer("dataflow.delta_apply"), "ms");
    let (applied, fallback) = (sum(|c| c.applied), sum(|c| c.fallback));
    r.push("dataflow.delta_patched_frac", Some(ratio(applied, applied + fallback)), "ratio");
    r.push("relational.install_update_ms", edit_layer("relational.install_update"), "ms");
    r.push("viewer.compose_ms", layer("viewer.compose"), "ms");
    r.push("viewer.rows_in", count(|c| c.rows_in), "count");
    r.push("viewer.items", count(|c| c.items), "count");
    r.push("viewer.items_per_row_in", Some(ratio(sum(|c| c.items), sum(|c| c.rows_in))), "ratio");
    r.push("render.draw_ms", layer("render.draw"), "ms");
    r.push("render.hits", count(|c| c.hits), "count");
    r.push("render.hit_frac", Some(ratio(sum(|c| c.hits), sum(|c| c.items))), "ratio");
    r.push("server.wire_ms", Some(wire), "ms");
    r.push("server.queue_ms", Some(queue), "ms");
    r.push("obs.journal_bytes_per_op", Some(journal), "bytes");
    r.push("traced.gesture_ms", p50(g.iter().map(|s| s.total_ms).collect()), "ms");
    r.push("traced.edit_ms", p50(e.iter().map(|s| s.total_ms).collect()), "ms");
}

/// `--workload all`: each workload in its own child process, so set-up
/// state, worker counts and peak memory never mix.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut total = RunResult { correct: true, ..RunResult::default() };
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                &(args.trace as u8).to_string(),
            ])
            .stderr(std::process::Stdio::inherit())
            .output();
        let text = out.as_ref().map(|o| String::from_utf8_lossy(&o.stdout).into_owned());
        let text = text.unwrap_or_default();
        let mut lines: Vec<&str> = text.lines().collect();
        let parsed = lines.pop().ok_or("no output".to_string()).and_then(RunResult::parse);
        for l in lines {
            println!("{l}");
        }
        match parsed {
            Ok(r) if out.as_ref().is_ok_and(|o| o.status.success()) => {
                total.attempted += r.attempted;
                total.failed += r.failed;
                for mut m in r.metrics {
                    m.name = format!("{}.{}", w.name(), m.name);
                    total.metrics.push(m);
                }
            }
            other => {
                eprintln!("benchmark: workload {} failed: {:?}", w.name(), other.err());
                total.correct = false;
            }
        }
    }
    println!("{}", total.to_json());
    if total.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenes::Frame;
    use tioga2_expr::Color;

    fn names(r: &RunResult) -> Vec<&str> {
        r.metrics.iter().map(|m| m.name.as_str()).collect()
    }

    /// Every end-to-end metric, less the percentiles the tail rule
    /// withholds for this run's sample counts.
    fn expected_e2e(t: &Timings) -> Vec<&'static str> {
        let (g, e) = (t.gestures_ms.len(), t.edits_ms.len());
        END_TO_END
            .into_iter()
            .filter(|m| match *m {
                "gesture_p50_ms" => g >= 20,
                "gesture_p90_ms" => g >= 100,
                "edit_p50_ms" => e >= 20,
                _ => true,
            })
            .collect()
    }

    fn expected_layers(t: &Traced) -> Vec<&'static str> {
        let (g, e) = (t.gestures.len(), t.edits.len());
        let per_edit =
            ["dataflow.delta_apply_ms", "relational.install_update_ms", "traced.edit_ms"];
        let per_gesture = [
            "core.gesture_op_ms",
            "dataflow.demand_ms",
            "dataflow.box_evals",
            "viewer.compose_ms",
            "viewer.rows_in",
            "viewer.items",
            "render.draw_ms",
            "render.hits",
            "traced.gesture_ms",
        ];
        PER_LAYER
            .into_iter()
            .filter(|m| !per_edit.contains(m) || e >= 20)
            .filter(|m| !per_gesture.contains(m) || g >= 20)
            .collect()
    }

    fn flip_one_pixel(f: &mut Frame) {
        let before = f.fb.pixels().to_vec();
        for color in [Color::RED, Color::BLACK] {
            f.fb.set(3, 3, color);
            if f.fb.pixels() != before.as_slice() {
                return;
            }
        }
        unreachable!("one of two distinct colours changes the pixel");
    }

    /// A half-second run of an in-process workload, plain and traced: all
    /// its metrics are reported, both final frames pass the output check,
    /// and the check fails once a single pixel is flipped.
    fn half_second(scene: Scene) {
        let seed = 3;
        let mut s = scene.setup(seed).unwrap();
        let mut script = Script::new(scene, seed, 0);
        let (t, mut live) = run_plain(scene, &mut s, &mut script, 2, 0.5).unwrap();
        assert_eq!(t.failed, 0);
        assert!(!t.gestures_ms.is_empty());
        assert_eq!(names(&e2e_result(true, &t, 0.1, Some(1.0))), expected_e2e(&t));
        let cold = cold_frame(scene, &mut s, seed).unwrap();
        check_frames(&live, &cold).unwrap();
        flip_one_pixel(&mut live);
        assert!(check_frames(&live, &cold).is_err(), "a flipped pixel must fail the check");

        let (traced, frame, rec) = run_traced(scene, &mut s, &mut script, 2, 0.5).unwrap();
        assert_eq!(traced.failed, 0);
        assert_eq!(rec.dropped_events(), 0);
        check_frames(&frame, &cold_frame(scene, &mut s, seed).unwrap()).unwrap();
        let mut r = RunResult::default();
        layer_metrics(&mut r, &traced, [0.01, 0.02], 100.0);
        assert_eq!(names(&r), expected_layers(&traced));
    }

    #[test]
    fn deep_zoom_half_second() {
        half_second(Scene::DeepZoom);
    }

    #[test]
    fn overview_half_second() {
        half_second(Scene::Overview);
    }

    #[test]
    fn group_replicate_half_second() {
        half_second(Scene::GroupReplicate);
    }

    /// The served workload in process: the traced decomposition the
    /// traced run uses.
    #[test]
    fn served_in_process_half_second() {
        half_second(Scene::Served);
    }

    /// The served workload over TCP: both users' final frames equal their
    /// replays, and a flipped pixel fails the comparison.
    #[test]
    fn served_half_second() {
        // `render` writes under the working directory; keep it in target/.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../target/benchmark/test-served");
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_current_dir(&dir).unwrap();
        let seed = 3;
        let mut fleet = served::start_fleet(seed).unwrap();
        let logs: Vec<UserLog> = (fleet.clients.iter_mut().enumerate())
            .map(|(i, c)| served_user(c, &mut Script::new(Scene::Served, seed, i as u64), 2, 0.5))
            .collect();
        served::check_replay(&mut fleet, &logs, seed).unwrap();
        let ppm = served::served_ppm(&mut fleet.clients[0], 0).unwrap();
        let mut frame = served::replay(seed, &logs[0].log).unwrap();
        served::check_ppm(&ppm, &frame).unwrap();
        flip_one_pixel(&mut frame);
        assert!(served::check_ppm(&ppm, &frame).is_err(), "a flipped pixel must fail the check");
        fleet.handle.stop();
        let mut t = Timings::default();
        logs.into_iter().for_each(|l| t.merge(l.timings));
        assert_eq!(t.failed, 0);
        assert_eq!(names(&e2e_result(true, &t, 0.1, Some(1.0))), expected_e2e(&t));
    }

    #[test]
    fn wire_and_queue_come_from_the_probe() {
        let [wire, queue] = wire_and_queue(1, 0.2).unwrap();
        assert!(wire.is_finite() && queue.is_finite());
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload overview --seed 9 --seconds 2.5 --trace 1").unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("overview", 9, 2.5, true));
        for bad in ["--seed", "--seed x", "--trace 2", "--seconds 0", "--bogus 1"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
